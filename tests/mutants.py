"""Mutants that the tier-1 tests must kill: ``(file, old text, new text, why)``.

Each entry is a text patch of one file under ``src/qreuse``: ``old`` must
occur there exactly once, and ``run_mutants.py`` replaces it with ``new`` in
a copy of the tree, then runs the tests there and expects one to fail. A
change to a mutated line updates its entry.

    python tests/run_mutants.py
"""

MUTANTS = [
    (
        "src/qreuse/transform.py",
        "        live = live and not is_reset[node]\n",
        "",
        "dead gates: liveness passes a reset, so a gate whose only way to a measurement is through a reset stays",
    ),
    (
        "src/qreuse/transform.py",
        "        live = writes[node] is not None\n",
        "        live = False\n",
        "dead gates: a measurement or toggle does not make its node live, so every gate goes",
    ),
    (
        "src/qreuse/transform.py",
        "        for q in qubits:\n            if wire_live[q]:\n",
        "        for q in qubits[:1]:\n            if wire_live[q]:\n",
        "dead gates: only a gate's first wire (its control) is read, so a CX live only through its target goes",
    ),
    (
        "src/qreuse/reuse.py",
        "            for r in reads_since.pop(w, ()):\n",
        "            for r in reads_since.pop(w, ())[:0]:\n",
        "reuse: a write is no longer scheduled after the reads of the bit's previous value",
    ),
    (
        "src/qreuse/reuse.py",
        "        last[h] = last[g]\n",
        "",
        "reuse: a group's last node never advances to its mover's, so a second merge onto it resets too early",
    ),
    (
        "src/qreuse/ir.py",
        "        return qubits, tuple(map(_first, literals)) if literals else (), None, False\n",
        "        return qubits, (), None, False\n",
        "facts: a gate reads no condition bits, so no pass sees a conditioned gate's bit dependency",
    ),
    (
        "src/qreuse/transform.py",
        "        put(node, swapped, (target, control))\n",
        "        put(node, swapped, (control, target))\n",
        "control exchange: the swapped gate's facts keep the old qubit order, not control first",
    ),
    (
        "src/qreuse/qasm.py",
        "            return Gate(kind, int(second), int(first), condition, line)\n",
        "            return Gate(kind, int(first), int(second), condition, line)\n",
        "parse: a two-qubit gate is read with its control and target swapped",
    ),
    (
        "src/qreuse/qasm.py",
        "        if controlled is (second is None):\n            return None",
        "        if False:\n            return None",
        "parse: a gate is read whatever its qubit shape, so ``cx q[0]`` reads as an X and ``h q[0], q[1]`` as a controlled H",
    ),
    (
        "src/qreuse/commute.py",
        "    if is_diagonal(prev):\n",
        "    if prev.kind.name in (\"z\", \"s\", \"t\", \"p\", \"rz\"):\n",
        "commute: diagonal by kind name, so a measurement no longer moves past an opaque gate whose matrix is diagonal",
    ),
    (
        "src/qreuse/oracle.py",
        "                    if record & qbit:\n                        record ^= qbit\n",
        "                    if False:\n                        record ^= qbit\n",
        "oracle: a qubit re-enters its path's state as 0, whatever value it was measured with",
    ),
    (
        "src/qreuse/oracle.py",
        "                    _, bit, qbit, clear = op\n                    branches += 1\n",
        "                    _, bit, qbit, clear = op\n",
        "oracle: a measurement or reset of a qubit outside the state counts no branch",
    ),
    (
        "src/qreuse/oracle.py",
        "                    if control is not None:  # diag(1, u_vv) on the control, v the target's value\n",
        "                    if False:\n",
        "oracle: a controlled diagonal gate is left out when only its target is outside the state",
    ),
    (
        "src/qreuse/oracle.py",
        "                literals = (*literals, (n_bits + control, 1))\n",
        "                literals = (*literals, (n_bits + control, 0))\n",
        "oracle: a control outside the state is tested for the known value 0, not 1",
    ),
    (
        "src/qreuse/oracle.py",
        "                                test = _record_test((*literals, (n_bits + target, v)))\n",
        "                                test = _record_test(literals)\n",
        "oracle: a controlled phase whose target is outside the state applies for either known value",
    ),
    (
        "src/qreuse/oracle.py",
        "                    may_set |= _toggle(plan, *_record_test(literals), 1 << n_bits + target)\n",
        "                    may_set |= _toggle(plan, *_record_test(literals), 0)\n",
        "oracle: a flip of a qubit outside the state leaves its known value alone",
    ),
    (
        "src/qreuse/oracle.py",
        "        starts = [0 if c is None else 1 << c]\n",
        "        starts = [0]\n",
        "oracle: a controlled unit flip swaps the slices where its control is 0",
    ),
    (
        "src/qreuse/oracle.py",
        "                u00, u11 = u01, u10\n",
        "                u00, u11 = u10, u01\n",
        "oracle: a flip's entries swap sides after the swap, so a controlled y acts as a controlled -y",
    ),
    (
        "src/qreuse/oracle.py",
        "                    here = pos, record & touch\n",
        "                    here = pos, record & touch & ~(touch & -touch)\n",
        "oracle: a shared future's key drops the lowest touched bit, so paths that differ there share leaves",
    ),
    (
        "src/qreuse/oracle.py",
        "            body.insert(pos, (_SHARE, touch, keep & ~touch))\n",
        "            body.insert(pos, (_SHARE, touch, keep))\n",
        "oracle: a path ORs its touched bits into the shared leaves, over the values the shared walk gave them",
    ),
    (
        "src/qreuse/oracle.py",
        "    stop = written | -1 << n_bits\n",
        "    stop = -1 << n_bits\n",
        "oracle: toggles that read or write a read-out bit leave the walk, so they act after the read-out",
    ),
    (
        "src/qreuse/oracle.py",
        "        for mask, want, flip in run:\n            if record & mask == want:\n                record ^= flip\n",
        "        for mask, want, flip in run:\n            if record & mask == mask:\n                record ^= flip\n",
        "oracle: the lifted toggles' affine map is read with each negative literal tested as a positive one",
    ),
    (
        "src/qreuse/oracle.py",
        "            column = moved_by(1 << j) ^ offset ^ 1 << j\n",
        "            column = moved_by(1 << j) ^ 1 << j\n",
        "oracle: a column of the lifted toggles' tables keeps their move of 0, so an outcome with that bit set moves twice by it",
    ),
    (
        "src/qreuse/oracle.py",
        "        if (mask | flip) & stop or mask & mask - 1:\n",
        "        if (mask | flip) & stop:\n",
        "oracle: a toggle with two literals leaves the walk, and the affine map reads it as one literal",
    ),
    (
        "src/qreuse/oracle.py",
        "                    if found is None or weight > found[0]:  # walk on as the key's walk\n",
        "                    if found is None:  # walk on as the key's walk\n",
        "oracle: a heavier path takes the leaves a lighter one walked, without those its own weight keeps",
    ),
    (
        "src/qreuse/oracle.py",
        "        shared[shared_key] = weight, leaves\n",
        "        sums = {}\n        for r, q in leaves:\n            sums[r] = sums.get(r, 0.0) + q\n"
        "        shared[shared_key] = weight, list(sums.items())\n",
        "oracle: a shared walk's outcomes are summed per record, so a lighter path keeps a sum whose parts it would drop",
    ),
    (
        "src/qreuse/oracle.py",
        "abs(p - b.pop(k, 0.0)) for k, p in a.items()]) + sum(b.values()))\n",
        "abs(p - b.pop(k, 0.0)) for k, p in a.items()]))\n",
        "oracle: total variation drops the outcomes that only the second distribution reaches",
    ),
    (
        "src/qreuse/oracle.py",
        "abs(p - b.pop(k, 0.0)) for k, p in a.items()]",
        "abs(p - b.get(k, 0.0)) for k, p in a.items()]",
        "oracle: total variation leaves the shared outcomes in the second distribution, so they count twice",
    ),
    (
        "src/qreuse/transform.py",
        "gate.control is None or gate.kind.unitary[:3] != (1, 0, 0):\n",
        "gate.control is None or gate.kind.unitary[1:3] != (0, 0):\n",
        "control exchange: any controlled diagonal is swapped, so a controlled rz, not symmetric, is too",
    ),
    (
        "src/qreuse/ir.py",
        "    \"rz\": lambda angle: (cmath.exp(-0.5j * angle), 0, 0, cmath.exp(0.5j * angle)),\n",
        "    \"rz\": lambda angle: (cmath.exp(0.5j * angle), 0, 0, cmath.exp(-0.5j * angle)),\n",
        "gate table: rz's exponents have the wrong sign, so rz(a) acts as rz(-a)",
    ),
    (
        "src/qreuse/ir.py",
        "        elif label is not None or matrix is not None:\n",
        "        elif False:\n",
        "gate kind: a built-in kind takes a label or matrix, which emit drops, so it reads back unequal",
    ),
    (
        "src/qreuse/ir.py",
        "        _set_kind_diagonal(self, abs(u01) <= ANGLE_TOL and abs(u10) <= ANGLE_TOL)\n",
        "        _set_kind_diagonal(self, u01 == 0 and u10 == 0)\n",
        "diagonal: off-diagonal entries must be exactly zero, so rx(2pi) and near-diagonal opaque gates stop commuting",
    ),
    (
        "src/qreuse/cli.py",
        "        click.echo(f\"equivalence FAILED: TV distance {equivalence['max_deviation']:.3e}\", err=True)\n"
        "        sys.exit(EXIT_MISMATCH)\n",
        "        click.echo(f\"equivalence FAILED: TV distance {equivalence['max_deviation']:.3e}\", err=True)\n",
        "cli: optimize --verify reports a mismatch but exits 0",
    ),
    (
        "src/qreuse/reuse.py",
        "                first[q] = i\n            else:\n",
        "                first[q] = i\n            elif not isinstance(instr, Reset):\n",
        "reuse: an input reset gets no wire edge from the instruction before it, so it may be scheduled first",
    ),
    (
        "src/qreuse/ir.py",
        "            if instr.condition:\n                check_literals(i, instr.condition, \"condition\", \"condition\")\n",
        "",
        "validation: a gate's condition is not checked, so a condition on a clbit out of range passes",
    ),
    (
        "src/qreuse/bench.py",
        "                k = firsts + rng.randrange(free)\n",
        "                k = rng.randrange(free)\n",
        "random circuits: a partner is drawn without skipping the first qubits taken, so it may be one of them",
    ),
    (
        "src/qreuse/pipeline.py",
        "        g2_reused=two_qubit_gate_count(result) if mode == \"proposed\" else g0,\n",
        "        g2_reused=g0,\n",
        "report: proposed mode reports the input's two-qubit count, not its output's",
    ),
]
