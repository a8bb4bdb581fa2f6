import math

import numpy as np
import pytest

from helpers import explicit_set
from qasm_sim import simulate_qasm, statevector
from shallowfp.circuit import (
    Circuit,
    Gate,
    _multiplexor_angles,
    build_aikps,
    build_deep,
    build_shallow,
    cx_count_lnn,
    depth,
    emit_qasm,
    pad_pow2,
    stats,
)
from shallowfp.coeffsets import (
    CoefficientSet,
    expand_subset_sums,
    gen_aikps,
    gen_cyclic,
    gen_gap,
)
from shallowfp.errors import DomainError
from shallowfp.qfa import run_word


def fingerprint_reference(coeffs, p, x):
    """(cos, sin) amplitude pairs of the fingerprint state, 1/sqrt(d) scaled."""
    d = len(coeffs)
    theta = 2.0 * np.pi * (np.asarray(coeffs) * x % p) / p
    return np.cos(theta) / math.sqrt(d), np.sin(theta) / math.sqrt(d)


class TestGateInvariants:
    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError):
            Gate("ry", 1, 0.5, ((1, True),))

    @pytest.mark.parametrize("kind", ["h"])
    def test_uncontrolled_kinds_take_no_controls(self, kind):
        # emit_qasm writes h without controls, so a controlled one would
        # simulate differently from its QASM
        with pytest.raises(ValueError, match=f"^{kind} takes no controls$"):
            Gate(kind, 1, 0.5, ((0, True),))

    def test_unknown_kind_rejected(self):
        for kind in ("cz", "cry"):  # a controlled rotation is an ry with controls
            with pytest.raises(ValueError, match=f"^unknown gate kind '{kind}'$"):
                Gate(kind, 0)

    @pytest.mark.parametrize("angle", [math.nan, math.inf])
    def test_angle_must_be_finite(self, angle):
        with pytest.raises(ValueError, match="^angle must be finite$"):
            Gate("ry", 0, angle)

    def test_gate_outside_register_rejected(self):
        with pytest.raises(ValueError):
            Circuit(2, [Gate("h", 0), Gate("h", 5)])

    def test_gate_is_a_hashable_frozen_value(self):
        g = Gate("ry", 2, 0.5, ((0, True),))
        assert g == Gate("ry", 2, 0.5, ((0, True),))
        assert g != Gate("ry", 2, 0.5, ((0, False),)) and g != Gate("ry", 2, 0.25, ((0, True),))
        assert len({g, Gate("ry", 2, 0.5, ((0, True),)), Gate("h", 0)}) == 2
        for field in ("kind", "target", "angle", "controls"):
            with pytest.raises(AttributeError):
                setattr(g, field, 1)
        assert g.qubits == (0, 2)

    def test_circuit_equality_follows_its_gates(self):
        K = gen_gap(1013, 3, seed=1).expanded
        c = build_shallow(K, 5)
        assert c == build_shallow(K, 5) and hash(c) == hash(build_shallow(K, 5))
        assert c != build_shallow(K, 6) and c != build_deep(K, 5)
        assert c != Circuit(c.num_qubits, c.gates, c.label)  # the style differs
        assert isinstance(c.gates, tuple) and c.style == "shallow"
        for field in Circuit.__slots__:
            with pytest.raises(AttributeError):
                setattr(c, field, getattr(c, field))
        assert not hasattr(c, "add")


class TestStatevector:
    def test_empty_circuit(self):
        assert np.allclose(statevector(Circuit(2)), [1, 0, 0, 0])

    def test_single_h(self):
        c = Circuit(1, [Gate("h", 0)])
        assert np.allclose(statevector(c), [1 / math.sqrt(2)] * 2)

    def test_negative_control(self):
        c = Circuit(2, [Gate("ry", 1, math.pi, ((0, False),))])  # fires on |control=0>
        sv = statevector(c)
        assert sv[0] == pytest.approx(math.cos(math.pi / 2), abs=1e-12)
        assert sv[2] == pytest.approx(math.sin(math.pi / 2), abs=1e-12)

    def test_positive_control(self):
        fire = Gate("ry", 1, math.pi, ((0, True),))  # fires on |control=1>
        assert np.allclose(statevector(Circuit(2, [fire])), [1, 0, 0, 0], atol=1e-12)
        sv = statevector(Circuit(2, [Gate("ry", 0, math.pi), fire]))
        assert np.allclose(sv, [0, 0, 0, 1], atol=1e-12)

    @pytest.mark.parametrize("ctrl,tgt", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("basis", range(4))
    def test_cx_on_basis_states(self, basis, ctrl, tgt):
        # ry(pi) prepares |basis>; cx flips the target bit where the control bit is set
        prep = "".join(f"ry({math.pi!r}) q[{q}];\n" for q in range(2) if basis >> q & 1)
        sv = simulate_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{prep}cx q[{ctrl}],q[{tgt}];\n")
        expected = np.zeros(4)
        expected[basis ^ (basis >> ctrl & 1) << tgt] = 1.0
        assert np.allclose(sv, expected, atol=1e-12)


class TestDeepBuilder:
    def test_structure_m1(self):
        c = build_deep(explicit_set(7, [1, 2]), 1)
        shape = [(g.kind, len(g.controls)) for g in c.gates]
        assert shape == [("h", 0), ("ry", 1), ("ry", 1)]
        assert c.num_qubits == 2

    @pytest.mark.parametrize("x", [0, 1, 6, 12])
    def test_fingerprint_amplitudes(self, x):
        K = gen_cyclic(13, 8)
        cos_block, sin_block = np.split(statevector(build_deep(K, x)), 2)
        ref_cos, ref_sin = fingerprint_reference(K.coefficients, 13, x)
        assert np.allclose(cos_block, ref_cos, atol=1e-9)
        assert np.allclose(sin_block, ref_sin, atol=1e-9)

    def test_padding_records_original_size(self):
        K = explicit_set(11, [1, 2, 3])
        padded = pad_pow2(K)
        assert padded.coefficients == (1, 2, 3, 3)
        c = build_deep(K, 1)
        assert "padded_from=3" in c.label

    def test_control_patterns_cover_all(self):
        c = build_deep(gen_cyclic(17, 8), 1)
        patterns = {tuple(pol for _, pol in g.controls)
                    for g in c.gates if g.controls}
        assert len(patterns) == 8

    @pytest.mark.parametrize("m", range(1, 8))
    def test_depth(self, m):
        c = build_deep(explicit_set(257, list(range(1, 2 ** m + 1))), 3)
        assert depth(c) == 2 ** m + 1

    def test_matches_closed_form_probability(self):
        K = gen_cyclic(13, 8)
        for x in range(13):
            cos_block, _ = np.split(statevector(build_deep(K, x)), 2)
            prob = float(cos_block.sum() / math.sqrt(8)) ** 2
            assert prob == pytest.approx(run_word(K, x), abs=1e-10)


class TestShallowBuilder:
    def test_structure(self):
        K = expand_subset_sums(5, (1, 3, 9), 31)
        c = build_shallow(K, 2)
        shape = [(g.kind, len(g.controls)) for g in c.gates]
        assert shape == [("h", 0)] * 3 + [("ry", 1)] * 3 + [("ry", 0)]
        assert depth(c) == 5

    def test_zero_offset_keeps_final_gate(self):
        K = expand_subset_sums(0, (1, 3), 31)
        c = build_shallow(K, 7)
        assert (c.gates[-1].kind, c.gates[-1].controls) == ("ry", ())
        assert c.gates[-1].angle == 0.0

    @pytest.mark.parametrize("x", [0, 1, 17, 30])
    def test_fingerprint_matches_expansion(self, x):
        K = expand_subset_sums(5, (1, 3, 9), 31)
        cos_block, sin_block = np.split(statevector(build_shallow(K, x)), 2)
        ref_cos, ref_sin = fingerprint_reference(K.coefficients, 31, x)
        assert np.allclose(cos_block, ref_cos, atol=1e-9)
        assert np.allclose(sin_block, ref_sin, atol=1e-9)

    def test_deep_and_shallow_agree_on_same_set(self):
        K = gen_gap(101, 3, seed=2).expanded
        x = 11
        assert np.allclose(statevector(build_deep(K, x)), statevector(build_shallow(K, x)),
                           atol=1e-9)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_depth_m_plus_2(self, m):
        K = expand_subset_sums(0, tuple(range(1, m + 1)), 65537)
        assert depth(build_shallow(K, 1)) == m + 2


def base3_gap(p, t0, m):
    return expand_subset_sums(t0, tuple(3 ** i for i in range(m)), p)


class TestProductIdentity:
    """The shallow automaton accepts as m + 1 independent qubits do.  For the
    subset sums K of t0 and T, with sigma = 2 t0 + sum(T),
    run_word(K, x) = cos^2(pi sigma x / p) * prod_i cos^2(pi t_i x / p), the
    probability that R_y(2 pi g x / p) on qubit q, one qubit per g in
    T + (sigma,), leaves all qubits at 0 (ROADMAP item 13)."""

    @pytest.mark.parametrize("K,step", [
        (base3_gap(1013, 0, 3), 1),
        (expand_subset_sums(17, (5, 40, 200, 611), 1013), 1),
        (expand_subset_sums(5, (3,), 7), 1),
        (expand_subset_sums(1, (1,), 2), 1),
        (gen_gap(1013, 4, seed=3).expanded, 1),
        (base3_gap(16411, 3, 8), 7),
    ], ids=["1013-t0=0-m=3", "1013-t0=17-m=4", "7-m=1", "2-m=1", "gen_gap-1013-m=4",
            "base3-16411-m=8"])
    def test_acceptance_is_the_cos2_product(self, K, step):
        p, T = int(K.p), K.params["T"]
        factors = T + ((2 * K.params["t0"] + sum(T)) % p,)
        for x in range(0, p, step):
            product = math.prod(math.cos(math.pi * (g * x % p) / p) ** 2 for g in factors)
            assert run_word(K, x) == pytest.approx(product, abs=1e-14), x
            c = Circuit(len(factors), [Gate("ry", q, 2 * math.pi * (g * x % p) / p)
                                       for q, g in enumerate(factors)])
            assert depth(c) == 1 and "cx" not in emit_qasm(c)
            assert statevector(c)[0] ** 2 == pytest.approx(product, abs=1e-14), x


class TestBuilderInputs:
    """Each builder refuses a set its layout cannot take, with the one-line
    DomainError that the CLI prints."""

    def test_shallow_needs_generators(self):
        with pytest.raises(DomainError, match="subset-sum set"):
            build_shallow(gen_cyclic(13, 4), 1)

    def test_shallow_needs_the_subset_sums(self):
        K = expand_subset_sums(5, (1, 3), 31)
        edited = CoefficientSet(31, (5, 6, 8, 10), K.method, K.params)
        with pytest.raises(DomainError, match="subset sums"):
            build_shallow(edited, 1)

    @pytest.mark.parametrize("K", [gen_cyclic(13, 4),
                                   CoefficientSet(13, (1, 2), "aikps", {"eps": True}),
                                   CoefficientSet(13, (1, 2), "aikps", {"eps": "0.5"})],
                             ids=["cyclic", "bool-eps", "str-eps"])
    def test_aikps_needs_an_aikps_set(self, K):
        with pytest.raises(DomainError, match="--method aikps"):
            build_aikps(K, 1)

    def test_aikps_needs_the_rebuilt_coefficients(self):
        K = gen_aikps(1013, 0.5)
        for coefficients in (K.coefficients[:3], K.coefficients[:-1] + (1,)):
            edited = CoefficientSet(K.p, coefficients, "aikps", K.params)
            with pytest.raises(DomainError, match="equal to the set rebuilt from p and eps"):
                build_aikps(edited, 5)

    def test_aikps_rebuilds_r_and_s_max(self):
        K = gen_aikps(1013, 0.5)
        edited = CoefficientSet(K.p, K.coefficients, "aikps",
                                {**K.params, "R": [2], "s_max": 1})
        assert build_aikps(edited, 5) == build_aikps(K, 5)


class TestAikpsBuilder:
    def test_structure_65537(self):
        c = build_aikps(gen_aikps(65537, 0.5), 1)
        assert sum(1 for g in c.gates if g.controls) == 7 * 8
        assert depth(c) == 63  # 7 blocks of 9 serialized rotations
        bound = 2 * math.log2(65537) ** 1.5 * math.log2(math.log2(65537))
        assert depth(c) <= bound

    @pytest.mark.parametrize("p,eps", [(257, 0.5), (1013, 0.3), (1013, 0.5), (65537, 1.0)])
    def test_depth_bound(self, p, eps):
        c = build_aikps(gen_aikps(p, eps), 1)
        bound = (1 + 2 * eps) * math.log2(p) ** (1 + eps) * math.log2(math.log2(p))
        assert depth(c) <= bound

    @pytest.mark.parametrize("p,eps,x", [(13, 0.5, 5), (101, 1.0, 50), (1013, 0.5, 12),
                                         (65537, 0.5, 1)])
    def test_each_block_is_the_shallow_bank_of_its_binary_gap(self, p, eps, x):
        # block b, moved to controls 0..n_ctrl-1 and target n_ctrl, is the
        # shallow circuit of t0 = r^-1 and generators 2^k r^-1 without its H
        # layer; that set is r^-1 {1, ..., 2^n_ctrl}, gen_aikps's block
        # r^-1 {1, ..., s_max} extended to the next power of two
        K = gen_aikps(p, eps)
        R, s_max = K.params["R"], K.params["s_max"]
        n_ctrl = max(1, (s_max - 1).bit_length())
        c = build_aikps(K, x)
        assert len(c.gates) == len(R) * (n_ctrl + 1)
        for b, r in enumerate(R):
            r_inv = pow(r, -1, p)
            bank = expand_subset_sums(r_inv, [(r_inv << k) % p for k in range(n_ctrl)], p)
            assert bank.coefficients == tuple(s * r_inv % p for s in range(1, 2 ** n_ctrl + 1))
            assert bank.coefficients[:s_max] == K.coefficients[b * s_max:(b + 1) * s_max]
            block = c.gates[b * (n_ctrl + 1):(b + 1) * (n_ctrl + 1)]
            moved = [Gate(g.kind, n_ctrl, g.angle,
                          tuple((q - b * n_ctrl, pol) for q, pol in g.controls))
                     for g in block]
            assert moved == [g for g in build_shallow(bank, x).gates if g.kind != "h"]


class TestMetrics:
    def test_depth_examples(self):
        assert depth(Circuit(3)) == 0
        K = expand_subset_sums(0, (1, 2, 4), 65537)
        assert depth(build_shallow(K, 1)) == 5
        assert depth(build_deep(explicit_set(17, list(range(1, 9))), 1)) == 9

    def test_cx_counts(self):
        K = expand_subset_sums(0, tuple(range(1, 6)), 65537)
        assert cx_count_lnn(build_shallow(K, 1)) == 18  # 3m+3 at m=5
        K = explicit_set(65537, list(range(1, 33)))
        assert cx_count_lnn(build_deep(K, 1)) == 160  # 32 * 5

    def test_cx_deep_single_coefficient(self):
        # d = 1 is one uncontrolled rotation: d * ceil(log2 d) = 0 CX
        c = build_deep(explicit_set(2, [1]), 1)
        assert [(g.kind, g.controls) for g in c.gates] == [("ry", ())]
        assert cx_count_lnn(c) == 0

    def test_cx_shallow_edge_no_controls(self):
        assert cx_count_lnn(build_shallow(expand_subset_sums(3, (), 7), 1)) == 3

    def test_unrecognized_style_rejected(self):
        # the model follows the style, whatever the label says
        c = Circuit(1, [Gate("ry", 0, 1.0)], label="shallow[m=0]")
        with pytest.raises(ValueError, match="style ''"):
            cx_count_lnn(c)

    def test_stats_keys(self):
        K = expand_subset_sums(0, (1, 3), 31)
        data = stats(build_shallow(K, 1))
        assert list(data) == ["label", "num_qubits", "gates", "depth", "cx_lnn"]


class TestQasm:
    def test_empty_circuit(self):
        text = emit_qasm(Circuit(2))
        assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'

    def test_shallow_m1_structure(self):
        K = expand_subset_sums(3, (7,), 31)
        text = emit_qasm(build_shallow(K, 2))
        lines = text.splitlines()
        assert sum(1 for l in lines if l.startswith("h ")) == 1
        assert sum(1 for l in lines if l.startswith("cx ")) == 2  # one lowered controlled ry
        assert sum(1 for l in lines if l.startswith("ry(")) == 3  # its two halves + final R_0

    @pytest.mark.parametrize("builder_idx", range(4))
    def test_round_trip(self, builder_idx):
        circuits = [
            build_deep(gen_cyclic(13, 8), 5),
            build_shallow(expand_subset_sums(5, (1, 3, 9), 31), 7),
            build_deep(explicit_set(11, [1, 2, 3]), 2),  # padded
            build_aikps(gen_aikps(5, 0.5), 1),
        ]
        c = circuits[builder_idx]
        resim = simulate_qasm(emit_qasm(c))
        assert np.allclose(resim, statevector(c), atol=1e-9)

    def test_bytes_stable(self):
        c = build_deep(gen_cyclic(13, 8), 5)
        assert emit_qasm(c) == emit_qasm(c)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 10])
    def test_deep_is_one_multiplexor(self, m):
        K = explicit_set(1000003, [(7919 * j) % 1000003 for j in range(1, 2 ** m + 1)])
        ops = [line.split(" ", 1)[0].split("(", 1)[0]
               for line in emit_qasm(build_deep(K, 3)).splitlines()[3:]]
        assert (ops.count("h"), ops.count("ry"), ops.count("cx")) == (m, 2 ** m, 2 ** m)
        assert len(ops) == m + 2 ** (m + 1)  # nothing else, no x

    def test_multiplexor_runs_round_trip(self):
        c = Circuit(4, [
            *(Gate("h", q) for q in range(4)),
            # one run on target 3, controls (0, 1), mixed polarities; the first
            # and third gates share a pattern, so their angles add
            Gate("ry", 3, 0.7, ((0, True), (1, False))),
            Gate("ry", 3, 1.9, ((0, False), (1, True))),
            Gate("ry", 3, 2.3, ((0, True), (1, False))),
            Gate("ry", 3, 4.1, ((0, False), (1, False))),
            # same target, other control tuple: a new run, controls out of order
            Gate("ry", 3, 0.4, ((2, False), (0, True))),
            Gate("ry", 3, 5.2, ((2, True), (0, True))),
            # other target, back to back
            Gate("ry", 0, 3.3, ((3, False),)),
            Gate("ry", 2, 1.1, ((1, True), (0, False), (3, True))),
            Gate("ry", 1, 0.9),
            Gate("ry", 3, 6.0, ((0, False), (1, False))),
        ])
        text = emit_qasm(c)
        cx = sum(1 for line in text.splitlines() if line.startswith("cx "))
        assert cx == 4 + 4 + 2 + 8 + 4
        assert np.allclose(simulate_qasm(text), statevector(c), atol=1e-9)

    @pytest.mark.parametrize("theta", [0.0, 1.5])
    def test_single_control_lowering(self, theta):
        c = Circuit(2, [Gate("ry", 1, theta, ((0, True),))])
        half = theta / 2
        assert emit_qasm(c).splitlines()[3:] == [
            f"ry({half:.17g}) q[1];", "cx q[0],q[1];", f"ry({-half:.17g}) q[1];", "cx q[0],q[1];"]

    def test_same_pattern_angles_add(self):
        def one_run(angles):
            gates = [Gate("h", 0), Gate("h", 1)]
            gates += [Gate("ry", 2, a, ((0, False), (1, True))) for a in angles]
            return emit_qasm(Circuit(3, gates))

        split, merged = one_run([1.25, 2.5]), one_run([3.75])
        assert split == merged


def numpy_multiplexor_angles(run):
    """Reference: the vectorized Walsh-Hadamard butterfly the QASM golden
    bytes were recorded with."""
    n = len(run[0].controls)
    a = np.zeros(1 << n)
    for gate in run:
        a[sum(1 << b for b, (_, pol) in enumerate(gate.controls) if pol)] += gate.angle
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        u, v = pairs[:, 0], pairs[:, 1]
        a = np.stack([u + v, -(v - u)], axis=1).reshape(-1)
        h *= 2
    k = np.arange(a.size)
    return a[k ^ (k >> 1)] / a.size


@pytest.mark.parametrize("m", range(1, 11))
def test_multiplexor_angles_match_numpy_reference(m):
    # float.hex tells -0.0 from 0.0, so signed zeros must match too
    rng = np.random.default_rng(m)
    patterns = rng.integers(0, 2, size=(2 ** m + 3, m)).astype(bool)
    angles = rng.uniform(0.0, 4 * math.pi, size=len(patterns))
    angles[0] = 0.0
    patterns[1] = patterns[2]  # a repeated pattern: angles add
    runs = [
        # one zero rotation: the butterfly's -(v - u) yields -0
        [Gate("ry", m, 0.0, tuple((q, True) for q in range(m)))],
        # mixed polarities, repeats, a zero angle
        [Gate("ry", m, float(a), tuple((q, bool(pol)) for q, pol in enumerate(row)))
         for a, row in zip(angles, patterns)],
        # the deep layout of a d = 2^m set
        build_deep(explicit_set(1000003, [(7919 * j) % 1000003
                                          for j in range(1, 2 ** m + 1)]), 12345).gates[m:],
    ]
    for run in runs:
        got = _multiplexor_angles(run)
        assert [x.hex() for x in got] == [x.hex() for x in numpy_multiplexor_angles(run)]


class TestUnitarity:
    @pytest.mark.parametrize("x", [0, 3, 12])
    def test_norms(self, x):
        for c in (build_deep(gen_cyclic(13, 8), x),
                  build_shallow(expand_subset_sums(5, (1, 3, 9), 31), x)):
            assert np.linalg.norm(statevector(c)) == pytest.approx(1.0, abs=1e-12)
