"""A compact CDCL SAT solver: watched literals, VSIDS, 1UIP learning.

Literals are ints: variable v (>= 1) maps to 2*v (positive) and 2*v+1
(negated).  All clauses are permanent; retractable facts are passed to
``solve`` as assumptions, which keeps learned clauses valid across the
push/pop discipline of the SMT layer above.
"""

from __future__ import annotations

import time
from heapq import heappush, heappop


UNASSIGNED = -1


class Solver:
    def __init__(self):
        self.nvars = 0
        self.watches: list[list[list[int]]] = [[], []]  # per literal
        self.assign: list[int] = [UNASSIGNED]
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self.phase: list[int] = [0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.unsat = False
        self.heap: list[tuple[float, int]] = []
        self.n_clauses = 0

    # --- variables and clauses ---

    def new_var(self) -> int:
        self.nvars += 1
        self.assign.append(UNASSIGNED)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(0)
        self.watches.append([])
        self.watches.append([])
        return self.nvars

    def value(self, lit: int) -> int:
        v = self.assign[lit >> 1]
        if v == UNASSIGNED:
            return UNASSIGNED
        return v ^ (lit & 1)

    def add_clause(self, lits) -> bool:
        """Add a permanent clause; False means the instance is now unsat."""
        if self.unsat:
            return False
        self._backtrack(0)
        seen = set()
        out = []
        for lit in lits:
            if lit in seen:
                continue
            if (lit ^ 1) in seen:
                return True  # tautology
            val = self.value(lit)
            if val == 1:
                return True  # satisfied at root
            if val == 0:
                continue  # false at root, drop literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self.unsat = True
            return False
        if len(out) == 1:
            return self._assert_root(out[0])
        self.n_clauses += 1
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)
        return True

    def _assert_root(self, lit: int) -> bool:
        if not self._enqueue(lit, None):
            self.unsat = True
            return False
        if self._propagate() is not None:
            self.unsat = True
            return False
        return True

    # --- assignment and propagation ---

    def _enqueue(self, lit: int, reason) -> bool:
        v = lit >> 1
        val = self.assign[v]
        if val != UNASSIGNED:
            return (val ^ (lit & 1)) == 1
        self.assign[v] = 1 ^ (lit & 1)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self):
        watches = self.watches
        assign = self.assign
        trail = self.trail
        while self.qhead < len(trail):
            lit = trail[self.qhead]
            self.qhead += 1
            false_lit = lit ^ 1
            wl = watches[false_lit]
            i = j = 0
            n = len(wl)
            while i < n:
                clause = wl[i]
                i += 1
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                fv = assign[first >> 1]
                if fv != UNASSIGNED and (fv ^ (first & 1)) == 1:
                    wl[j] = clause
                    j += 1
                    continue
                found = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    ov = assign[other >> 1]
                    if ov == UNASSIGNED or (ov ^ (other & 1)) == 1:
                        clause[1], clause[k] = clause[k], clause[1]
                        watches[other].append(clause)
                        found = True
                        break
                if found:
                    continue
                wl[j] = clause
                j += 1
                if fv != UNASSIGNED:
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    return clause
                self._enqueue(first, clause)
            del wl[j:]
        return None

    # --- conflict analysis (first UIP) ---

    def _bump(self, v: int):
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        if act > 1e100:
            for i in range(1, self.nvars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            act = self.activity[v]
        heappush(self.heap, (-act, v))

    def _analyze(self, conflict) -> tuple[list[int], int]:
        learnt = [0]
        seen = bytearray(self.nvars + 1)
        counter = 0
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        reason = conflict
        skip = None
        while True:
            for q in reason:
                if q == skip:
                    continue
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[idx] >> 1]:
                idx -= 1
            lit = self.trail[idx]
            v = lit >> 1
            seen[v] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                learnt[0] = lit ^ 1
                break
            reason = self.reason[v]
            skip = lit
        if len(learnt) == 1:
            return learnt, 0
        max_i = 1
        max_lvl = self.level[learnt[1] >> 1]
        for i in range(2, len(learnt)):
            lvl = self.level[learnt[i] >> 1]
            if lvl > max_lvl:
                max_lvl = lvl
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, max_lvl

    def _backtrack(self, target: int):
        if len(self.trail_lim) <= target:
            return
        bound = self.trail_lim[target]
        assign = self.assign
        phase = self.phase
        for lit in reversed(self.trail[bound:]):
            v = lit >> 1
            phase[v] = assign[v]
            assign[v] = UNASSIGNED
            self.reason[v] = None
            if self.activity[v] > 0.0:
                heappush(self.heap, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    # --- search ---

    def _decide_var(self) -> int:
        heap = self.heap
        assign = self.assign
        while heap:
            _, v = heappop(heap)
            if assign[v] == UNASSIGNED:
                return v
        for v in range(1, self.nvars + 1):
            if assign[v] == UNASSIGNED:
                return v
        return 0

    def solve(self, assumptions=(), deadline: float | None = None):
        """True = sat, False = unsat, None = deadline passed."""
        if self.unsat:
            return False
        self._backtrack(0)
        if self._propagate() is not None:
            self.unsat = True
            return False
        conflicts = 0
        luby_k = 0
        restart_limit = 128
        restart_conflicts = 0
        n_assumed = len(assumptions)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                restart_conflicts += 1
                if conflicts % 128 == 0:
                    if deadline is not None and time.monotonic() > deadline:
                        self._backtrack(0)
                        return None
                if not self.trail_lim:
                    self.unsat = True
                    return False
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.unsat = True
                        return False
                else:
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self.n_clauses += 1
                    self._enqueue(learnt[0], learnt)
                self.var_inc *= 1.0 / 0.95
                continue
            if restart_conflicts >= restart_limit and len(self.trail_lim) > n_assumed:
                restart_conflicts = 0
                luby_k += 1
                restart_limit = 128 * self._luby(luby_k)
                self._backtrack(n_assumed)
                continue
            pending = None
            failed = False
            for a in assumptions:
                val = self.value(a)
                if val == 0:
                    failed = True
                    break
                if val == UNASSIGNED:
                    pending = a
                    break
            if failed:
                self._backtrack(0)
                return False
            if pending is not None:
                self.trail_lim.append(len(self.trail))
                self._enqueue(pending, None)
                continue
            v = self._decide_var()
            if v == 0:
                return True
            self.trail_lim.append(len(self.trail))
            self._enqueue((v << 1) | (self.phase[v] ^ 1), None)

    @staticmethod
    def _luby(i: int) -> int:
        # Luby sequence 1 1 2 1 1 2 4 ... (1-indexed)
        i = max(i, 1)
        while True:
            k = i.bit_length()
            if i == (1 << k) - 1:
                return 1 << (k - 1)
            i = i - (1 << (k - 1)) + 1
