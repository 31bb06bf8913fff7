"""The Raft node: follower / candidate / leader roles over the sim network.

The implementation follows the Raft paper (Ongaro & Ousterhout, 2014):
randomized election timeouts, term-based leader election, log replication
with the AppendEntries consistency check, and majority commitment.  Committed
entries are applied, in order, to a :class:`~repro.raft.state_machine.StateMachine`.

Proposals are client-facing: :meth:`RaftNode.propose` returns a simulation
event that triggers once the proposed command has been committed and applied
*locally*.  Proposals made on a non-leader node are transparently forwarded
to the current leader (and buffered while no leader is known), which is the
behaviour the NotebookOS kernel replicas rely on during executor elections.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from itertools import count
from typing import Any, Dict, List, Optional

from repro.simulation.engine import Environment, Process
from repro.simulation.events import Event
from repro.simulation.network import Message, Network, NetworkAddress
from repro.simulation.distributions import SeededRandom
from repro.raft.log import LogEntry, RaftLog
from repro.raft.messages import (
    AppendEntriesRequest,
    AppendEntriesResponse,
    InstallSnapshotRequest,
    InstallSnapshotResponse,
    RequestVoteRequest,
    RequestVoteResponse,
)
from repro.raft.state_machine import StateMachine

_PROPOSAL_IDS = count(1)


class Role(enum.Enum):
    """The three Raft roles."""

    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclass
class RaftConfig:
    """Timing parameters of the Raft protocol (seconds of simulation time)."""

    election_timeout_min: float = 0.150
    election_timeout_max: float = 0.300
    heartbeat_interval: float = 0.050
    tick_interval: float = 0.010
    max_entries_per_append: int = 64

    def validate(self) -> None:
        if self.election_timeout_min <= 0:
            raise ValueError("election_timeout_min must be positive")
        if self.election_timeout_max < self.election_timeout_min:
            raise ValueError("election_timeout_max must be >= election_timeout_min")
        if self.heartbeat_interval >= self.election_timeout_min:
            raise ValueError("heartbeat_interval must be below election_timeout_min")
        if self.tick_interval <= 0:
            raise ValueError("tick_interval must be positive")


@dataclass
class _PendingProposal:
    proposal_id: int
    event: Event
    command: Any


class RaftNode:
    """One member of a Raft group, bound to a network address."""

    def __init__(self, env: Environment, network: Network, node_id: NetworkAddress,
                 peers: List[NetworkAddress], state_machine: StateMachine,
                 config: Optional[RaftConfig] = None,
                 rng: Optional[SeededRandom] = None) -> None:
        config = config or RaftConfig()
        config.validate()
        self.env = env
        self.network = network
        self.node_id = node_id
        self.peers = [p for p in peers if p != node_id]
        self.state_machine = state_machine
        self.config = config
        self._rng = rng or SeededRandom(zlib.crc32(node_id.encode()))

        # Persistent state.
        self.current_term = 0
        self.voted_for: Optional[NetworkAddress] = None
        self.log = RaftLog()

        # Volatile state.
        self.role = Role.FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.leader_id: Optional[NetworkAddress] = None
        self.next_index: Dict[NetworkAddress, int] = {}
        self.match_index: Dict[NetworkAddress, int] = {}
        self._votes_received: set[NetworkAddress] = set()

        # Client proposal tracking.
        self._pending_by_id: Dict[int, _PendingProposal] = {}
        self._unforwarded: List[_PendingProposal] = []

        # Observability counters.
        self.elections_started = 0
        self.elections_won = 0
        self.entries_applied = 0
        self.apply_listeners: List[Any] = []

        self._running = False
        self._inbox = network.register(node_id)
        self._election_deadline = 0.0
        self._last_heartbeat_sent = 0.0
        self._processes: List[Process] = []

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the node's receive loop and timer processes."""
        if self._running:
            return
        self._running = True
        self._reset_election_deadline()
        self._processes = [
            self.env.process(self._receive_loop(), name=f"raft-recv:{self.node_id}"),
            self.env.process(self._timer_loop(), name=f"raft-timer:{self.node_id}"),
        ]

    def stop(self) -> None:
        """Stop the node (used when a kernel replica is terminated)."""
        self._running = False
        for process in self._processes:
            if process.is_alive:
                process.interrupt("raft-node-stopped")
        self._processes = []
        self.network.unregister(self.node_id)

    @property
    def is_leader(self) -> bool:
        return self.role == Role.LEADER

    @property
    def running(self) -> bool:
        return self._running

    def quorum_size(self) -> int:
        return (len(self.peers) + 1) // 2 + 1

    # ------------------------------------------------------------------
    # Client interface.
    # ------------------------------------------------------------------
    def propose(self, command: Any) -> Event:
        """Propose ``command``; the returned event triggers when applied locally."""
        proposal_id = next(_PROPOSAL_IDS)
        pending = _PendingProposal(proposal_id=proposal_id,
                                   event=self.env.event(), command=command)
        self._pending_by_id[proposal_id] = pending
        wrapped = {"proposal_id": proposal_id, "origin": self.node_id,
                   "command": command}
        if self.is_leader:
            self._leader_append(wrapped)
        elif self.leader_id is not None and self.network.is_registered(self.leader_id):
            self.network.send(self.node_id, self.leader_id, "raft.propose", wrapped)
        else:
            self._unforwarded.append(pending)
        return pending.event

    def add_apply_listener(self, listener: Any) -> None:
        """Register ``listener(index, command, result)`` for every applied entry."""
        self.apply_listeners.append(listener)

    # ------------------------------------------------------------------
    # Membership (single-server changes).
    # ------------------------------------------------------------------
    def set_peers(self, peers: List[NetworkAddress]) -> None:
        """Replace the peer set (committed configuration change applied)."""
        self.peers = [p for p in peers if p != self.node_id]
        for peer in self.peers:
            self.next_index.setdefault(peer, self.log.last_index + 1)
            self.match_index.setdefault(peer, 0)
        self.next_index = {p: self.next_index[p] for p in self.peers}
        self.match_index = {p: self.match_index[p] for p in self.peers}

    # ------------------------------------------------------------------
    # Timers.
    # ------------------------------------------------------------------
    def _reset_election_deadline(self) -> None:
        timeout = self._rng.uniform(self.config.election_timeout_min,
                                    self.config.election_timeout_max)
        self._election_deadline = self.env.now + timeout

    def _timer_loop(self):
        while self._running:
            yield self.config.tick_interval
            if not self._running:
                return
            if self.role == Role.LEADER:
                if (self.env.now - self._last_heartbeat_sent
                        >= self.config.heartbeat_interval):
                    self._broadcast_append_entries()
            elif self.env.now >= self._election_deadline:
                self._start_election()

    # ------------------------------------------------------------------
    # Receive loop and message dispatch.
    # ------------------------------------------------------------------
    def _receive_loop(self):
        while self._running:
            message: Message = yield self._inbox.get()
            if not self._running:
                return
            self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        payload = message.payload
        kind = message.kind
        if kind == "raft.request_vote":
            self._handle_request_vote(payload)
        elif kind == "raft.request_vote_response":
            self._handle_request_vote_response(payload)
        elif kind == "raft.append_entries":
            self._handle_append_entries(payload)
        elif kind == "raft.append_entries_response":
            self._handle_append_entries_response(payload)
        elif kind == "raft.propose":
            self._handle_forwarded_proposal(payload)
        elif kind == "raft.install_snapshot":
            self._handle_install_snapshot(payload)
        elif kind == "raft.install_snapshot_response":
            self._handle_install_snapshot_response(payload)

    # ------------------------------------------------------------------
    # Elections.
    # ------------------------------------------------------------------
    def _start_election(self) -> None:
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.node_id
        self.leader_id = None
        self._votes_received = {self.node_id}
        self.elections_started += 1
        self._reset_election_deadline()
        request = RequestVoteRequest(term=self.current_term,
                                     candidate_id=self.node_id,
                                     last_log_index=self.log.last_index,
                                     last_log_term=self.log.last_term)
        if len(self._votes_received) >= self.quorum_size():
            self._become_leader()
            return
        for peer in self.peers:
            self.network.send(self.node_id, peer, "raft.request_vote", request)

    def _handle_request_vote(self, request: RequestVoteRequest) -> None:
        if request.term > self.current_term:
            self._become_follower(request.term)
        grant = False
        if request.term == self.current_term:
            up_to_date = (request.last_log_term, request.last_log_index) >= (
                self.log.last_term, self.log.last_index)
            if up_to_date and self.voted_for in (None, request.candidate_id):
                grant = True
                self.voted_for = request.candidate_id
                self._reset_election_deadline()
        response = RequestVoteResponse(term=self.current_term,
                                       voter_id=self.node_id, vote_granted=grant)
        self.network.send(self.node_id, request.candidate_id,
                          "raft.request_vote_response", response)

    def _handle_request_vote_response(self, response: RequestVoteResponse) -> None:
        if response.term > self.current_term:
            self._become_follower(response.term)
            return
        if self.role != Role.CANDIDATE or response.term != self.current_term:
            return
        if response.vote_granted:
            self._votes_received.add(response.voter_id)
            if len(self._votes_received) >= self.quorum_size():
                self._become_leader()

    def _become_leader(self) -> None:
        self.role = Role.LEADER
        self.leader_id = self.node_id
        self.elections_won += 1
        self.next_index = {peer: self.log.last_index + 1 for peer in self.peers}
        self.match_index = {peer: 0 for peer in self.peers}
        # Commit a no-op entry to establish leadership over previous terms.
        self._leader_append({"proposal_id": 0, "origin": self.node_id,
                             "command": ("noop",)})
        self._flush_unforwarded()
        self._broadcast_append_entries()

    def _become_follower(self, term: int) -> None:
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
        self.role = Role.FOLLOWER
        self._reset_election_deadline()

    # ------------------------------------------------------------------
    # Log replication (leader side).
    # ------------------------------------------------------------------
    def _leader_append(self, wrapped_command: Any) -> LogEntry:
        entry = self.log.append(self.current_term, wrapped_command)
        self._maybe_advance_commit()
        self._broadcast_append_entries()
        return entry

    def _flush_unforwarded(self) -> None:
        pending, self._unforwarded = self._unforwarded, []
        for proposal in pending:
            wrapped = {"proposal_id": proposal.proposal_id, "origin": self.node_id,
                       "command": proposal.command}
            if self.is_leader:
                self._leader_append(wrapped)
            elif self.leader_id is not None:
                self.network.send(self.node_id, self.leader_id, "raft.propose", wrapped)
            else:
                self._unforwarded.append(proposal)

    def _broadcast_append_entries(self) -> None:
        self._last_heartbeat_sent = self.env.now
        for peer in self.peers:
            self._send_append_entries(peer)

    def _send_append_entries(self, peer: NetworkAddress) -> None:
        next_index = self.next_index.get(peer, self.log.last_index + 1)
        if next_index <= self.log.snapshot_index:
            self._send_install_snapshot(peer)
            return
        prev_index = next_index - 1
        prev_term = self.log.term_at(prev_index)
        if prev_term is None:
            self._send_install_snapshot(peer)
            return
        entries = self.log.entries_from(next_index)
        entries = entries[: self.config.max_entries_per_append]
        request = AppendEntriesRequest(term=self.current_term, leader_id=self.node_id,
                                       prev_log_index=prev_index,
                                       prev_log_term=prev_term,
                                       entries=entries,
                                       leader_commit=self.commit_index)
        size = 64 + sum(_estimate_size(e.command) for e in entries)
        self.network.send(self.node_id, peer, "raft.append_entries", request,
                          size_bytes=size)

    def _handle_append_entries(self, request: AppendEntriesRequest) -> None:
        if request.term > self.current_term:
            self._become_follower(request.term)
        success = False
        match_index = 0
        if request.term == self.current_term:
            if self.role != Role.FOLLOWER:
                self._become_follower(request.term)
            self.leader_id = request.leader_id
            self._reset_election_deadline()
            if self.log.has_entry(request.prev_log_index, request.prev_log_term):
                self.log.append_entries(request.prev_log_index, request.entries)
                success = True
                if request.entries:
                    match_index = request.entries[-1].index
                else:
                    match_index = request.prev_log_index
                if request.leader_commit > self.commit_index:
                    self.commit_index = min(request.leader_commit, self.log.last_index)
                    self._apply_committed()
            self._flush_unforwarded()
        response = AppendEntriesResponse(term=self.current_term,
                                         follower_id=self.node_id,
                                         success=success, match_index=match_index)
        self.network.send(self.node_id, request.leader_id,
                          "raft.append_entries_response", response)

    def _handle_append_entries_response(self, response: AppendEntriesResponse) -> None:
        if response.term > self.current_term:
            self._become_follower(response.term)
            return
        if self.role != Role.LEADER or response.term != self.current_term:
            return
        peer = response.follower_id
        if response.success:
            self.match_index[peer] = max(self.match_index.get(peer, 0),
                                         response.match_index)
            self.next_index[peer] = self.match_index[peer] + 1
            self._maybe_advance_commit()
        else:
            self.next_index[peer] = max(1, self.next_index.get(peer, 1) - 1)
            self._send_append_entries(peer)

    def _maybe_advance_commit(self) -> None:
        if self.role != Role.LEADER:
            return
        for index in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(index) != self.current_term:
                continue
            replicas = 1 + sum(1 for peer in self.peers
                               if self.match_index.get(peer, 0) >= index)
            if replicas >= self.quorum_size():
                self.commit_index = index
                self._apply_committed()
                break

    # ------------------------------------------------------------------
    # Snapshots (for lagging / freshly joined followers).
    # ------------------------------------------------------------------
    def _send_install_snapshot(self, peer: NetworkAddress) -> None:
        request = InstallSnapshotRequest(term=self.current_term,
                                         leader_id=self.node_id,
                                         last_included_index=self.log.snapshot_index,
                                         last_included_term=self.log.snapshot_term,
                                         snapshot=self.state_machine.snapshot())
        self.network.send(self.node_id, peer, "raft.install_snapshot", request,
                          size_bytes=1024)

    def _handle_install_snapshot(self, request: InstallSnapshotRequest) -> None:
        if request.term > self.current_term:
            self._become_follower(request.term)
        if request.term < self.current_term:
            return
        self.leader_id = request.leader_id
        self._reset_election_deadline()
        if request.last_included_index > self.log.snapshot_index:
            self.state_machine.restore(request.snapshot)
            self.log.install_snapshot(request.last_included_index,
                                      request.last_included_term)
            self.commit_index = max(self.commit_index, request.last_included_index)
            self.last_applied = max(self.last_applied, request.last_included_index)
        response = InstallSnapshotResponse(term=self.current_term,
                                           follower_id=self.node_id,
                                           last_included_index=request.last_included_index)
        self.network.send(self.node_id, request.leader_id,
                          "raft.install_snapshot_response", response)

    def _handle_install_snapshot_response(self, response: InstallSnapshotResponse) -> None:
        if response.term > self.current_term:
            self._become_follower(response.term)
            return
        if self.role != Role.LEADER:
            return
        peer = response.follower_id
        self.match_index[peer] = max(self.match_index.get(peer, 0),
                                     response.last_included_index)
        self.next_index[peer] = self.match_index[peer] + 1

    # ------------------------------------------------------------------
    # Forwarded proposals and application.
    # ------------------------------------------------------------------
    def _handle_forwarded_proposal(self, wrapped: Any) -> None:
        if self.is_leader:
            self._leader_append(wrapped)
        elif self.leader_id is not None and self.leader_id != self.node_id:
            self.network.send(self.node_id, self.leader_id, "raft.propose", wrapped)
        # Otherwise the proposal is dropped; the proposer's own node will
        # retry it when a leader is discovered (it stays in _unforwarded).

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.entry_at(self.last_applied)
            if entry is None:
                continue
            wrapped = entry.command
            command = wrapped.get("command") if isinstance(wrapped, dict) else wrapped
            result = self.state_machine.apply(self.last_applied, command)
            self.entries_applied += 1
            for listener in self.apply_listeners:
                listener(self.last_applied, command, result)
            if isinstance(wrapped, dict):
                self._resolve_pending(wrapped, result)

    def _resolve_pending(self, wrapped: Dict[str, Any], result: Any) -> None:
        if wrapped.get("origin") != self.node_id:
            return
        proposal_id = wrapped.get("proposal_id")
        pending = self._pending_by_id.pop(proposal_id, None)
        if pending is not None and not pending.event.triggered:
            pending.event.succeed(result)


def _estimate_size(command: Any) -> int:
    """Rough wire-size estimate used for bandwidth-aware links."""
    try:
        return max(32, len(repr(command)))
    except Exception:  # pragma: no cover - defensive
        return 64
