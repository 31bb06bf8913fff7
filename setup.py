"""Setup shim for environments without PEP 660 editable-install support."""

from setuptools import setup

# dataclass(slots=True) needs Python 3.10.
setup(python_requires=">=3.10")
