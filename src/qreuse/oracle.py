"""Exact reference semantics for dynamic circuits.

Path enumeration in plain Python, with explicit branching on measurements
and resets. A path keeps a flat list of amplitudes over only the qubits in
its state. A qubit outside the state is a classical bit of the path: every
qubit starts outside at 0, and a measured or reset one leaves the state and
holds its value. Controls, flips and phases on such bits update the path's
record; only the target of any other gate enters the state. So the one- and
two-qubit circuits that reuse produces run on lists of two or four numbers.
Where a measurement leaves a path's state empty, the rest of the circuit is
walked once per value of the record bits it touches (again only for a
heavier path), and every lighter path takes that walk's outcomes, scaled.
The observable object is the joint probability distribution over the
declared classical bits, which is what every rewrite pass must preserve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain

from .ir import Circuit, ClassicalToggle, Gate, Instruction, Measure, Reset

__all__ = [
    "MAX_BRANCHES", "MAX_QUBITS",
    "OutcomeDistribution", "SimulationLimitError", "distribution", "equivalent",
]

# The simulation budget: qubits, branches (each branch of a measurement or
# reset, and each leaf of the final read-out) and the weight below which a
# branch is dropped.
MAX_QUBITS = 12
MAX_BRANCHES = 1 << 20
PRUNE = 1e-14


class SimulationLimitError(RuntimeError):
    """Raised when a circuit exceeds the qubit or branch budget."""


def _record_test(literals) -> tuple[int, int]:
    """``(mask, want)`` such that ``record & mask == want`` iff every literal holds."""
    mask = want = 0
    for bit, polarity in literals:
        if mask >> bit & 1 and want >> bit & 1 != polarity:
            return 0, 1  # one bit with both polarities never holds
        mask |= 1 << bit
        want |= polarity << bit
    return mask, want


# The opcodes of a plan, the most often run first: a run of toggles, a qubit
# entering the state, a general gate, a measurement or reset of a qubit
# outside the state, a split of one in it, a swap of slices (a bit flip), a
# diagonal gate and a lookup of the shared future of an empty state.
_TOGGLES, _ENTER, _GENERAL, _KNOWN, _SPLIT, _SWAP, _DIAGONAL, _SHARE = range(8)


def _select(base: list[int], size: int, t: int, side: int) -> list[int]:
    """The entries of ``base[:size]`` at the positions whose bit ``t`` is
    ``side``, in order: one slice when ``t`` is the lowest or the top bit,
    else the runs of ``2^t``."""
    half = 1 << t
    step, first = 2 * half, half if side else 0
    if half == 1:
        return base[first:size:2]
    if step == size:
        return base[first:first + half]
    return list(chain.from_iterable([base[b:b + half] for b in range(first, size, step)]))


def _halves(tables: dict, index: list[int], k: int, t: int, c: int | None) -> tuple[list[int], list[int]]:
    """The indices of ``k`` bits whose bit ``t`` is 0, and those whose bit
    ``t`` is 1, inside those whose bit ``c`` is 1 unless ``c`` is None, kept
    in ``tables`` so that each pair is built once; every table holds the
    ints of ``index``.

    The lists are ascending: without a control that is the order of the
    shorter state a split continues on, and with one, both sides list
    partner indices in the same order.
    """
    key = (k, t, c)
    if key not in tables:
        if c is None:
            size = 1 << k
            tables[key] = _select(index, size, t, 0), _select(index, size, t, 1)
        else:  # position p of the control's 1 half is index p with bit c put in
            base, size, t = _halves(tables, index, k, c, None)[1], 1 << k - 1, t - (t > c)
            tables[key] = _select(base, size, t, 0), _select(base, size, t, 1)
    return tables[key]


def _swaps(tables: dict, k: int, t: int, c: int | None) -> list[tuple[slice, slice]]:
    """Pairs of equal-length slices of a list of ``2^k`` amplitudes: the
    positions whose bit ``t`` is 0 and their partners whose bit ``t`` is 1,
    inside those whose bit ``c`` is 1 unless ``c`` is None. Kept in
    ``tables`` so that each list is built once.

    Bits ``t`` and ``c`` split the other index bits into groups of adjacent
    free bits. Each slice runs over the widest group with one step, and
    there is a slice for each value of the other groups' bits.
    """
    key = (k, t, c)
    if key not in tables:
        fixed = [t] if c is None else sorted((t, c))
        edges = [-1, *fixed, k]
        groups = [(low + 1, high - low - 1) for low, high in zip(edges, edges[1:])]
        first, width = max(groups, key=lambda group: group[1])
        starts = [0 if c is None else 1 << c]
        for other, bits in groups:
            if other != first:
                starts = [s | v << other for s in starts for v in range(1 << bits)]
        step, half = 1 << first, 1 << t
        span = step << width
        tables[key] = [
            (slice(s, s + span, step), slice(s + half, s + half + span, step)) for s in starts
        ]
    return tables[key]


def _toggle(plan: list[tuple], mask: int, want: int, flip: int) -> int:
    """Append a toggle of the bits ``flip``, when ``record & mask == want``,
    to the plan's last run of toggles, or start a run; returns ``flip``."""
    if plan and plan[-1][0] == _TOGGLES:
        plan[-1][1].append((mask, want, flip))
    else:
        plan.append((_TOGGLES, [(mask, want, flip)]))
    return flip


def _plan(
    instrs: tuple[Instruction, ...], n: int, n_bits: int
) -> tuple[list[tuple], list[int], list[tuple[int, int, int]]]:
    """The ops for ``instrs``, the qubits in the state after the last op
    (bit j of an index is ``inside[j]``), and the positions where a split
    leaves the state empty, each with the record bits that the ops before it
    may set and the number of splits before it.

    A path's record holds its ``n_bits`` classical bits and, above them, the
    known value of each qubit outside its state: qubit q is bit
    ``n_bits + q``. So a control outside the state is one more literal of
    the op's record test, that its known value is 1. A flip of a qubit
    outside the state toggles its known value, and a diagonal gate whose
    target is outside is a diagonal on its control, ``diag(1, u_vv)`` when
    the target is known as v (with no control, a phase of the whole path,
    which no probability sees). Only the target of any other gate enters
    the state. A gate's entries are its kind's ``unitary``: a flip has
    ``u00 == u11 == 0`` and a diagonal ``u01 == u10 == 0``, exactly.

    Which qubits are in the state depends only on the instruction sequence,
    so each op's index tables (see ``_halves``) are worked out here, once: a
    gate's list its target's ``0`` and ``1`` halves, inside the half where
    its control is 1, and a split's the halves of the qubit that leaves. A
    flip swaps the slices ``_swaps`` lists instead, and only a flip other
    than ``x`` then multiplies. Consecutive toggles are one op.

    Every record starts as 0, and only a toggle, a split's outcome 1 and a
    measurement of a qubit outside the state set bits, so a bit that no op
    before a position may set is 0 there on every path.
    """
    tables: dict = {}
    swaps: dict = {}
    halves = partial(_halves, tables, list(range(1 << n)))
    where = [-1] * n  # each qubit's bit in the index, -1 outside the state
    inside: list[int] = []
    plan: list[tuple] = []
    empties: list[tuple[int, int, int]] = []
    may_set = splits = 0  # the record bits the ops so far may set, and their splits
    for instr in instrs:
        if isinstance(instr, Gate):
            u00, u01, u10, u11 = instr.kind.unitary
            target, control = instr.target, instr.control
            literals = instr.condition
            if control is not None and where[control] < 0:
                literals = (*literals, (n_bits + control, 1))
                control = None
            diagonal = u01 == 0 and u10 == 0
            flip = u00 == 0 and u11 == 0
            if where[target] < 0:
                if flip and control is None:  # its phase is the whole path's
                    may_set |= _toggle(plan, *_record_test(literals), 1 << n_bits + target)
                    continue
                if diagonal:
                    if control is not None:  # diag(1, u_vv) on the control, v the target's value
                        for v, u in enumerate((u00, u11)):
                            if u != 1:
                                test = _record_test((*literals, (n_bits + target, v)))
                                one = halves(len(inside), where[control], None)[1]
                                plan.append((_DIAGONAL, *test, (), one, 1, u))
                    continue  # with no control, a phase of the whole path
                where[target] = len(inside)
                inside.append(target)
                plan.append((_ENTER, 1 << n_bits + target))
            k, t = len(inside), where[target]
            c = None if control is None else where[control]
            test = _record_test(literals)
            if flip:  # a swap of each pair, then the diagonal diag(u01, u10)
                plan.append((_SWAP, *test, _swaps(swaps, k, t, c)))
                u00, u11 = u01, u10
            if diagonal or flip:
                if u00 != 1 or u11 != 1:
                    zero, one = halves(k, t, c)
                    plan.append((_DIAGONAL, *test, () if u00 == 1 else zero, () if u11 == 1 else one, u00, u11))
            else:
                plan.append((_GENERAL, *test, *halves(k, t, c), u00, u01, u10, u11))
        elif isinstance(instr, ClassicalToggle):
            may_set |= _toggle(plan, *_record_test(instr.product), 1 << instr.target)
        else:
            q, qbit = instr.qubit, 1 << n_bits + instr.qubit
            reset = isinstance(instr, Reset)
            bit = 0 if reset else 1 << instr.bit
            j = where[q]
            if j < 0:  # a measurement reads the known value, a reset clears it
                plan.append((_KNOWN, bit, qbit, qbit if reset else 0))
                may_set |= bit
                continue
            k = len(inside)
            set1 = 0 if reset else bit | qbit  # outcome 1 leaves a measured qubit known as 1, a reset one as 0
            plan.append((_SPLIT, *halves(k, j, None), bit, set1))
            may_set |= set1
            splits += 1
            if k == 1:
                empties.append((len(plan), may_set, splits))
            del inside[j]
            where[q] = -1
            for pos in range(j, k - 1):
                where[inside[pos]] = pos
    return plan, inside, empties


@dataclass(frozen=True, slots=True)
class OutcomeDistribution:
    """Probabilities over classical-bit assignments.

    Keys are bitstrings with bit 0 as the rightmost character.
    """

    n_bits: int
    probs: dict[str, float]

    def __getitem__(self, key: str) -> float:
        return self.probs.get(key, 0.0)

    def total_variation(self, other: "OutcomeDistribution") -> float:
        if self.n_bits != other.n_bits:
            raise ValueError("distributions declare different classical registers")
        return _total_variation(self.probs, dict(other.probs))


def _total_variation(a: dict, b: dict) -> float:
    """The total variation distance between the outcome probabilities ``a``
    and ``b``, in one pass over ``a`` that pops each of its outcomes from
    ``b``: what is left in ``b`` then holds the outcomes only ``b`` reaches.
    So ``b`` must be a dict the caller no longer needs."""
    return 0.5 * (sum([abs(p - b.pop(k, 0.0)) for k, p in a.items()]) + sum(b.values()))


def _check_branches(branches: int) -> None:
    if branches > MAX_BRANCHES:
        raise SimulationLimitError(f"branch count exceeded {MAX_BRANCHES}; circuit too dynamic")


def _read_out(
    tail: tuple[Instruction, ...], inside: list[int], n_bits: int
) -> tuple[int, list[tuple[int, int]], list[int], list[int]]:
    """Read-out plan for the measurement-only suffix ``tail``, reached with the
    qubits ``inside`` in the state.

    Returns the mask of bits the suffix writes; for each measured qubit
    outside the state, the bit of a path's record that holds its value (see
    ``_plan``) and the record bits it sets when that bit is 1; for each index
    of the state, its class (one per assignment of the measured qubits
    inside); and each class's record bits.
    """
    source = {m.bit: m.qubit for m in tail}  # the later write wins
    ones: dict[int, int] = {}
    for bit, q in source.items():
        ones[q] = ones.get(q, 0) | 1 << bit
    outside = [(1 << n_bits + q, bits) for q, bits in ones.items() if q not in inside]
    leaf_bits = [0]
    for q in inside:  # index bit j is inside[j]: each qubit doubles the list
        bits = ones.get(q, 0)
        leaf_bits += [b | bits for b in leaf_bits]
    class_bits = sorted(set(leaf_bits))
    of = {bits: m for m, bits in enumerate(class_bits)}
    return sum(1 << b for b in source), outside, [of[b] for b in leaf_bits], class_bits


def _lift(plan: list[tuple], n_bits: int, written: int) -> tuple[list[tuple], list[tuple[int, int, int]]]:
    """``plan`` without its longest trailing run of toggles that each test at
    most one bit and read and write no qubit's known value and no bit in
    ``written`` (the bits the read-out writes), and that run. Such a run
    commutes with the read-out, so it can move each outcome once the walk
    is done (see ``_move``)."""
    if plan[-1][0] != _TOGGLES:
        return plan, []
    run = plan[-1][1]
    stop = written | -1 << n_bits
    cut = len(run)
    while cut:
        mask, _, flip = run[cut - 1]
        if (mask | flip) & stop or mask & mask - 1:
            break
        cut -= 1
    body = plan[:-1] if cut == 0 else [*plan[:-1], (_TOGGLES, run[:cut])]
    return body, run[cut:]


def _share(
    plan: list[tuple], empties: list[tuple[int, int, int]], n_bits: int,
    written: int, outside: list[tuple[int, int]], keep: int,
) -> tuple[list[tuple], list[tuple[int, int, int]]]:
    """``plan`` with its trailing toggles lifted (see ``_lift``) and a
    ``_SHARE`` op at each position of ``empties`` where sharing pays, and
    the lifted toggles; or ``plan`` itself and no toggles where no position
    shares. The read-out (see ``_read_out``) writes the bits ``written`` and
    reads the known values in ``outside``. A pass from the end inserts the
    ops into the lifted plan in place, the last position first, so the
    positions still to come stay where they are.

    The op holds ``touch``, the record bits that the ops after it and the
    read-out read or write, and the kept bits outside them. It goes in only
    where an op follows, a measurement, a reset or the read-out comes later
    (so that every path from there counts a branch for each leaf it
    reaches), and fewer bits of ``touch`` may be set than splits come before
    it: a key ``record & touch`` then takes fewer values than paths may
    reach it.
    """
    body, lifted = _lift(plan, n_bits, written)
    touch, at = written, len(body)
    for qbit, _ in outside:
        touch |= qbit
    counted = written != 0  # a measurement, a reset or the read-out follows
    shared = False
    for pos, before, splits in reversed(empties):
        while at > pos:  # OR in what each op reads or writes
            at -= 1
            op = body[at]
            code = op[0]
            if code == _TOGGLES:
                for mask, _, flip in op[1]:
                    touch |= mask | flip
            elif code == _KNOWN:
                touch |= op[1] | op[2] | op[3]
                counted = True
            elif code == _SPLIT:
                touch |= op[3] | op[4]
                counted = True
            else:  # a record test's mask, or the bit of a qubit that enters
                touch |= op[1]
        if counted and pos < len(body) and (touch & before).bit_count() < splits:
            body.insert(pos, (_SHARE, touch, keep & ~touch))
            shared = True
    return (body, lifted) if shared else (plan, [])


def _move(run: list[tuple[int, int, int]], acc: dict[int, float]) -> dict[int, float]:
    """``acc`` with each outcome moved by the toggles ``run``, in order, each
    of which tests at most one bit (see ``_lift``).

    So the run is an affine map over GF(2): it moves an outcome by its move
    of 0, XOR the column of each tested bit that is 1 there, which is its
    move of that bit alone XOR its move of 0. Both are read by running the
    toggles. An outcome then moves by the move of 0 XOR one table entry per
    byte of tested bits: a byte starts at the lowest tested bit it does not
    cover yet, and its table lists the moves of the values of its bits up to
    the highest tested one.
    """
    def moved_by(record: int) -> int:
        for mask, want, flip in run:
            if record & mask == want:
                record ^= flip
        return record

    offset, read = moved_by(0), 0
    for mask, _, _ in run:
        read |= mask
    tables = []
    while read:
        shift = (read & -read).bit_length() - 1
        width = (read >> shift & 255).bit_length()
        table = [0]
        for j in range(shift, shift + width):
            column = moved_by(1 << j) ^ offset ^ 1 << j
            table += [entry ^ column for entry in table]
        tables.append((shift, len(table) - 1, table))
        read &= -1 << shift + width
    moved: dict[int, float] = {}
    for leaf, p in acc.items():
        out = leaf ^ offset  # affine
        for shift, mask, table in tables:
            out ^= table[leaf >> shift & mask]
        moved[out] = moved.get(out, 0.0) + p
    return moved


def _walk(
    plan: list[tuple], keep: int, written: int, outside: list[tuple[int, int]],
    classes: list[int], class_bits: list[int],
) -> list[tuple[int, float]]:
    """The leaves of ``plan`` and the read-out (see ``_read_out``), by
    depth-first path enumeration: a record and a probability for each
    outcome of each path, in walk order (see ``distribution``).

    A path that reaches a ``_SHARE`` op with key ``(position, record &
    touch)`` takes the leaves of the heaviest path that walked that key so
    far: it scales each by the ratio of their weights, drops those at most
    ``PRUNE`` and ORs in its kept bits outside ``touch``. Leaves are summed
    per record only at the end, so each is dropped as the path's own
    outcome would be step by step. A path heavier
    than the one that walked its key, or the first with a key, suspends the
    walk it is in (``frames``) and walks on as a walk of its own, whose
    leaves are then its own and the key's. ``branches`` counts each branch
    of a split, each measurement or reset outside the state, each leaf of a
    read-out, and each leaf a path takes from a shared walk.
    """
    end = len(plan)
    shared: dict[tuple[int, int], tuple[float, list[tuple[int, float]]]] = {}
    frames: list[tuple] = []  # the walks that a path walking its key's future suspended
    key = None  # the shared future this walk computes; None: the whole circuit's
    acc: list[tuple[int, float]] = []  # the leaves of this walk's paths
    branches = 0
    # Stack entries: (next plan position, amplitudes, record, weight).
    stack: list[tuple[int, list[complex], int, float]] = [(0, [1 + 0j], 0, 1.0)]
    while True:
        while stack:
            pos, amps, record, weight = stack.pop()
            while pos < end:
                op = plan[pos]
                pos += 1
                code = op[0]
                if code == _TOGGLES:
                    for mask, want, flip in op[1]:
                        if record & mask == want:
                            record ^= flip
                elif code == _ENTER:
                    qbit = op[1]  # enter
                    if record & qbit:
                        record ^= qbit
                        amps[:0] = [0j] * len(amps)
                    else:
                        amps += [0j] * len(amps)
                elif code == _GENERAL:
                    _, mask, want, zero, one, u00, u01, u10, u11 = op
                    if record & mask == want:
                        for i, j in zip(zero, one):
                            a0, a1 = amps[i], amps[j]  # pair
                            amps[i] = u00 * a0 + u01 * a1
                            amps[j] = u10 * a0 + u11 * a1
                elif code == _KNOWN:  # the one outcome of a qubit outside the state
                    _, bit, qbit, clear = op
                    branches += 1
                    _check_branches(branches)
                    record = record | bit if record & qbit else record & ~bit
                    record &= ~clear
                elif code == _SPLIT:
                    _, zero, one, bit, set1 = op
                    p0 = p1 = 0.0
                    for i in zero:
                        a = amps[i]
                        p0 += a.real * a.real + a.imag * a.imag
                    for i in one:
                        a = amps[i]
                        p1 += a.real * a.real + a.imag * a.imag
                    keep0, keep1 = p0 > PRUNE, p1 > PRUNE
                    branches += keep0 + keep1
                    _check_branches(branches)
                    record &= ~bit
                    if keep1:
                        ones = list(map(amps.__getitem__, one))  # copy
                        stack.append((pos, ones, record | set1, p1))
                    if not keep0:
                        break  # a pushed branch is popped next
                    amps = list(map(amps.__getitem__, zero))
                    weight = p0
                elif code == _SWAP:
                    _, mask, want, pairs = op
                    if record & mask == want:
                        for zero, one in pairs:
                            amps[zero], amps[one] = amps[one], amps[zero]
                elif code == _DIAGONAL:
                    _, mask, want, zero, one, u00, u11 = op  # diagonal
                    if record & mask == want:
                        for i in zero:
                            amps[i] *= u00
                        for i in one:
                            amps[i] *= u11
                else:  # _SHARE: the state is empty
                    _, touch, base = op
                    here = pos, record & touch
                    found = shared.get(here)
                    if found is None or weight > found[0]:  # walk on as the key's walk
                        frames.append((key, stack, acc, base & record, weight))
                        key = here
                        stack, acc = [(pos, amps, here[1], weight)], []
                        break
                    scale = weight / found[0]  # hit
                    base &= record
                    taken = len(acc)
                    for leaf, p in found[1]:
                        p *= scale
                        if p > PRUNE:
                            acc.append((leaf | base, p))
                    branches += len(acc) - taken
                    _check_branches(branches)
                    break
            else:  # reached the tail; a break above pushed, dropped or shared the path
                if not written:  # no read-out: the path ends with its whole weight
                    acc.append((record & keep, weight))
                    continue
                marginal = [0.0] * len(class_bits)
                for m, a in zip(classes, amps):
                    marginal[m] += a.real * a.real + a.imag * a.imag
                base = record & keep
                for qbit, bits in outside:
                    if record & qbit:
                        base |= bits
                for m, p in enumerate(marginal):
                    if p > PRUNE:
                        branches += 1
                        acc.append((base | class_bits[m], p))
                _check_branches(branches)
        if key is None:
            return acc
        shared_key, leaves = key, acc
        key, stack, acc, base, weight = frames.pop()
        shared[shared_key] = weight, leaves
        acc += [(leaf | base, p) for leaf, p in leaves]  # the suspended path's own


def _outcomes(circuit: Circuit) -> dict[int, float]:
    """The probability of each outcome of ``circuit``, keyed by its record:
    bit j of the int is classical bit j (see ``distribution``)."""
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise SimulationLimitError(f"{n} qubits exceeds the cap of {MAX_QUBITS}")
    instrs = circuit.instructions
    tail = len(instrs)
    while tail and isinstance(instrs[tail - 1], Measure):
        tail -= 1
    n_bits = circuit.n_clbits
    plan, inside, empties = _plan(instrs[:tail], n, n_bits)
    written, outside, classes, class_bits = _read_out(instrs[tail:], inside, n_bits)
    keep = (1 << n_bits) - 1 & ~written  # the record bits a leaf takes from its path
    lifted = []
    if empties:
        plan, lifted = _share(plan, empties, n_bits, written, outside, keep)
    acc: dict[int, float] = {}
    for leaf, p in _walk(plan, keep, written, outside, classes, class_bits):
        acc[leaf] = acc.get(leaf, 0.0) + p
    if lifted:
        acc = _move(lifted, acc)
    return acc


def distribution(circuit: Circuit) -> OutcomeDistribution:
    """Joint distribution of the classical register after running the circuit.

    Depth-first path enumeration: unitaries act on a path's amplitudes,
    measurements and resets split the path with Born-rule weights, conditions
    and toggles update each path's classical record. Branches with weight
    below ``PRUNE`` are dropped.

    A path keeps only the qubits in its state: its amplitudes are a flat list
    of ``2^k`` complex numbers, not normalised (their squared magnitudes sum
    to the path's weight). Every qubit starts outside the state, known as 0,
    so a path starts as ``[1]``. A path's one int record holds its classical
    bits and, above them, the known values of the qubits outside its state.
    A measured or reset qubit leaves the state: each kept outcome continues
    on a list of the indices where the qubit has that value, half the
    length, with the sum of their ``|amplitude|^2`` as its weight, and the
    record holds the value (0 after a reset). A gate on qubits outside the
    state is classical where it can be: a control there is a test that its
    value is 1, a flip (``x``, ``y``) of one toggles its value, and a
    diagonal gate whose target is there is a diagonal on its control, chosen
    by the target's value, or with no control only a phase of the whole
    path, which no probability sees. The target of any other gate enters the
    state: the list is padded to twice its length, with the qubit as the top
    index bit at its known value. A measurement or reset of a qubit outside
    the state is deterministic: one kept branch. Which qubits are in the
    state at each step depends only on the instructions, so the instructions
    before the read-out are compiled once into a plan of record mask tests,
    index tables and matrix entries (see ``_plan``). A gate is a diagonal, a
    bit flip that swaps slices of the list (then, for ``y``, a diagonal), or
    a general two-by-two update of the index pairs its tables list.

    The longest suffix of the circuit that holds only measurements is not
    branched: when a path reaches it, ``|amplitude|^2`` is summed per
    assignment of the measured qubits in the state, the measured qubits
    outside it read their known values, and every assignment whose sum
    exceeds ``PRUNE`` becomes one leaf. Its record applies the suffix's writes
    in order, so a qubit measured twice writes equal bits and the later write
    to a bit wins. A path's weight only shrinks, so these are the outcomes
    that step-by-step branching keeps. Each branch of a measurement or reset,
    and each leaf of the suffix, counts once against ``MAX_BRANCHES``.

    Where a split leaves the state empty, a path is its record and weight
    alone: its amplitude list holds one number, whose phase no probability
    sees. The ops after that position read and write only the record bits
    ``touch`` (with the read-out's), so the leaves a path reaches from there
    depend only on ``record & touch`` and its weight; its other bits pass to
    each leaf unchanged. So the first path with a key walks on as usual, and
    its leaves are the key's. A later path that is no heavier takes them
    scaled by the ratio of the weights, drops those at most ``PRUNE`` and
    ORs in its kept bits outside ``touch`` (see ``_walk``). A path's weight
    only shrinks, so a leaf whose scaled weight exceeds ``PRUNE`` passed
    every split on the way at a weight above ``PRUNE``, both in the walk and
    scaled: dropping the scaled leaves at most ``PRUNE`` drops exactly what
    step-by-step pruning of the lighter path drops. A heavier path would
    keep leaves that the walk dropped, so it walks on too, and its leaves
    become the key's. Against ``MAX_BRANCHES``, a path that walks counts its
    branches as usual, and a path that takes leaves counts one branch per
    leaf it keeps. A position shares only where a measurement, a reset or
    the read-out comes later (see ``_share``), so step-by-step branching
    counts at least one branch for each of those leaves, and no circuit
    counts more than it would step by step. It also shares only when fewer
    bits of ``touch`` may be set there than splits come before it, so that
    keys stay fewer than the paths that may reach them. A trailing run of
    toggles that each test at most one bit and touch no qubit's known value
    and no bit the read-out writes would make every position touch the bits
    it reads, so it leaves the walk and moves each outcome once at the end
    (see ``_lift`` and ``_move``).

    Up to here an outcome is an int record (see ``_outcomes``), summed per
    record; only this function formats the records, each as one bitstring.
    ``equivalent`` compares the records themselves.
    """
    n_bits = circuit.n_clbits
    spec = f"0{n_bits}b"
    probs = {format(rec, spec) if n_bits else "": p for rec, p in _outcomes(circuit).items()}
    return OutcomeDistribution(n_bits, probs)


def equivalent(first: Circuit, second: Circuit, tol: float = 1e-9) -> tuple[bool, float]:
    """Compare classical-outcome distributions; qubit counts may differ.

    Returns whether their total variation distance is at most ``tol``, and
    the distance. Each circuit's outcomes stay int records (see
    ``_outcomes``), never formatted as bitstrings, and the two are compared
    in one pass.
    """
    if first.n_clbits != second.n_clbits:
        raise ValueError("circuits declare different classical registers")
    tv = _total_variation(_outcomes(first), _outcomes(second))
    return tv <= tol, tv
