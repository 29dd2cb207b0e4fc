import math

import pytest
from hypothesis import given, settings, strategies as st

from qreuse import oracle
from qreuse.bench import (
    RandomSpec,
    SplitMix64,
    STRATEGIES,
    entanglement_pairs,
    gen_qft,
    gen_qpe,
    gen_random,
    gen_vqe,
)
from qreuse.ir import (
    Gate,
    Measure,
    depth,
    two_qubit_gate_count,
    validate,
)
from qreuse.qasm import emit

import bench_reference


class TestQpe:
    def test_structure_and_depth(self):
        c = gen_qpe(4, 2 * math.pi * 3 / 8)
        assert c.n_qubits == 4 and c.n_clbits == 3
        assert depth(c) == 9
        assert validate(c) == []

    def test_minimal_instance_zero_phase(self):
        c = gen_qpe(2, 0.0)
        d = oracle.distribution(c)
        assert d["0"] == pytest.approx(1.0)

    def test_phase_readout(self):
        d = oracle.distribution(gen_qpe(4, 2 * math.pi * 3 / 8))
        assert d["011"] == pytest.approx(1.0)

    def test_controlled_power_angles(self):
        c = gen_qpe(4, 0.5)
        powers = sorted(
            g.kind.angle
            for g in c.instructions
            if isinstance(g, Gate) and g.control is not None and g.kind.angle and g.kind.angle > 0
        )
        assert powers == [0.5, 1.0, 2.0]

    def test_single_p_variant_shape(self):
        c = gen_qpe(4, 1.0, single_p=True)
        assert c.n_clbits == 4
        assert validate(c) == []
        # eigenstate qubit is measured first and controls the ladder
        first = c.instructions[0]
        assert isinstance(first, Gate) and first.kind.name == "h" and first.target == 3
        assert isinstance(c.instructions[1], Measure)

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_qpe(1, 0.1)


class TestQft:
    @pytest.mark.parametrize("n,expected", [(1, 2), (4, 8), (6, 12)])
    def test_depth(self, n, expected):
        assert depth(gen_qft(n)) == expected

    def test_qft1_is_h_and_measure(self):
        c = gen_qft(1)
        assert [type(i).__name__ for i in c.instructions] == ["Gate", "Measure"]

    def test_ladder_size(self):
        assert two_qubit_gate_count(gen_qft(4)) == 6  # n(n-1)/2

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_qft(0)


class TestVqe:
    def test_smallest_linear_instance(self):
        c = gen_vqe(2, "linear", angles=[0.1, 0.2])
        names = [
            (i.kind.name if isinstance(i, Gate) else type(i).__name__)
            for i in c.instructions
        ]
        assert names == ["rx", "rx", "x", "Measure", "Measure"]
        assert c.instructions[2].control == 0

    def test_pair_patterns(self):
        assert entanglement_pairs(4, "linear") == [(0, 1), (1, 2), (2, 3)]
        assert entanglement_pairs(4, "reverse-linear") == [(2, 3), (1, 2), (0, 1)]
        assert entanglement_pairs(4, "circular") == [(3, 0), (0, 1), (1, 2), (2, 3)]
        assert entanglement_pairs(4, "pairwise") == [(0, 1), (2, 3), (1, 2)]
        assert entanglement_pairs(4, "full") == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_one_qubit_rejected(self):
        with pytest.raises(ValueError, match="^the ansatz needs at least 2 qubits$"):
            gen_vqe(1, "linear")

    def test_angle_count_enforced(self):
        with pytest.raises(ValueError):
            gen_vqe(4, "linear", angles=[0.1])

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            gen_vqe(4, "ring")

    @pytest.mark.parametrize("reps", [0, -2])
    def test_reps_below_one_rejected(self, reps):
        with pytest.raises(ValueError, match="reps"):
            gen_vqe(4, "linear", reps=reps)

    def test_reps_stack_layers(self):
        one = gen_vqe(3, "linear", reps=1)
        two = gen_vqe(3, "linear", reps=2)
        assert two_qubit_gate_count(two) == 2 * two_qubit_gate_count(one)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_validate(self, strategy):
        assert validate(gen_vqe(5, strategy)) == []


class TestRandom:
    def test_same_seed_identical_text(self):
        a = gen_random(RandomSpec(20, 4, seed=7))
        b = gen_random(RandomSpec(20, 4, seed=7))
        assert emit(a) == emit(b)

    def test_different_seed_differs(self):
        a = gen_random(RandomSpec(20, 4, seed=7))
        b = gen_random(RandomSpec(20, 4, seed=8))
        assert emit(a) != emit(b)

    def test_every_qubit_measured(self):
        c = gen_random(RandomSpec(9, 5, seed=3))
        measured = {i.qubit for i in c.instructions if isinstance(i, Measure)}
        assert measured == set(range(9))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            RandomSpec(0, 3, 1)

    @pytest.mark.parametrize("prob", [math.nan, -3.0, -1e-9, 1.0 + 1e-9, 2.0, math.inf])
    def test_two_qubit_prob_outside_unit_interval_rejected(self, prob):
        with pytest.raises(ValueError, match="two_qubit_prob"):
            RandomSpec(4, 3, 1, two_qubit_prob=prob)

    @pytest.mark.parametrize("prob", [0.0, 1.0])
    def test_two_qubit_prob_bounds_accepted(self, prob):
        assert validate(gen_random(RandomSpec(4, 3, 1, two_qubit_prob=prob))) == []

    @pytest.mark.parametrize(
        "n,d,seed,prob",
        [
            (1, 3, 1, 0.5), (2, 4, 5, 0.5), (3, 6, 2, 1.0), (8, 4, 7, 0.5), (17, 5, 3, 0.3),
            (32, 8, 1271847596999488994, 0.5), (33, 3, 9, 1.0), (64, 3, 4, 0.0), (120, 2, 11, 0.5),
            (1000, 3, 6, 0.9), (4096, 2, 1, 0.5),
        ],
    )
    def test_draw_matches_the_list_draw(self, n, d, seed, prob):
        spec = RandomSpec(n, d, seed, two_qubit_prob=prob)
        assert gen_random(spec) == bench_reference.gen_random(spec)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(1, 8), st.integers(1, 10))
    def test_depth_tracks_target(self, seed, n, d):
        c = gen_random(RandomSpec(n, d, seed))
        assert validate(c) == []
        assert abs(depth(c) - d) <= 1


def test_splitmix64_reference_stream():
    # First outputs for seed 0 of the standard splitmix64 sequence.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
