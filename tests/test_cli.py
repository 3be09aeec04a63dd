import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import supercoh
from supercoh import brauer, corpus, dsv, operations, simplicial, stable2type
from supercoh.cli import main
from supercoh.dsv import JSON_MAX_DIM, JSON_MAX_Q_ENTRY
from supercoh.exact_linalg import AbelianGroupPresentation as G
from supercoh.simplicial import Cochain, is_cohomologous
from supercoh.verify import _random_dsv


def _dense_q_dsv(rng, h: int, dim: int) -> dict:
    """JSON of a (dim|dim) DSV over Q with homology (h|h): the normal form
    with h even and h odd lines, a pieces d0 = 1 and b pieces d1 = 1, in a
    random basis change built from elementary operations with fraction
    multipliers, so the entries are dense fractions."""
    one, zero = Fraction(1), Fraction(0)
    a = (dim - h + 1) // 2
    d0 = [[zero] * dim for _ in range(dim)]
    d1 = [[zero] * dim for _ in range(dim)]
    for i in range(a):
        d0[h + i][h + i] = one
    for i in range(a, dim - h):
        d1[h + i][h + i] = one

    def basis_change():
        p = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
        inv = [row[:] for row in p]
        for _ in range(6 * dim):
            i, j = rng.sample(range(dim), 2)
            s = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            # p <- (I + s e_ij) p and inv <- inv (I - s e_ij)
            p[i] = [x + s * y for x, y in zip(p[i], p[j])]
            for row in inv:
                row[j] -= s * row[i]
        return p, inv

    def mul(x, y):
        return [[sum(u * v for u, v in zip(row, col)) for col in zip(*y)] for row in x]

    (p0, p0_inv), (p1, p1_inv) = basis_change(), basis_change()
    return {
        "field": "Q",
        "dim0": dim,
        "dim1": dim,
        "d0": [[str(x) for x in row] for row in mul(mul(p1, d0), p0_inv)],
        "d1": [[str(x) for x in row] for row in mul(mul(p0, d1), p1_inv)],
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def rp2_w_file(tmp_path):
    """A file holding the ko element (0, w, 0) of rp2, w the H^1 generator."""
    from supercoh import corpus
    from supercoh.simplicial import cohomology

    rp2 = corpus.complex_by_name("rp2")
    _, basis = cohomology(rp2, 1, 2)
    el = {
        "variant": "ko",
        "a": [0] * 6,
        "b": list(basis[0].cochain.values),
        "c": [0] * 10,
    }
    p = tmp_path / "el.json"
    p.write_text(json.dumps(el))
    return p


def run_rp2_order(capsys, tmp_path):
    """`supercoh order` on the ko element (0, w, 0) of rp2."""
    return run(capsys, "order", "--complex", "@rp2", "--variant", "ko", "--element", str(rp2_w_file(tmp_path)))


class TestCohomologyVerb:
    def test_point(self, capsys, tmp_path):
        p = tmp_path / "point.json"
        p.write_text(json.dumps({"vertex_count": 1, "maximal_simplices": [[0]]}))
        code, out, _ = run(capsys, "cohomology", "--complex", str(p), "--deg", "0", "--mod", "0")
        assert code == 0
        assert out.strip() == "Z"

    def test_builtin_name(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--complex", "@rp2", "--deg", "2", "--mod", "0")
        assert code == 0 and out.strip() == "Z/2"

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--complex", "@rp2", "--deg", "1", "--mod", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["group"]["invariant_factors"] == [2]
        assert len(data["generators"]) == 1

    def test_malformed_json_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        code, _, err = run(capsys, "cohomology", "--complex", str(p), "--deg", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "data",
        [
            {"vertex_count": 10**12, "maximal_simplices": [[0]]},
            {"vertex_count": 7, "maximal_simplices": [[0, 1, 2, 3, 4, 5, 6]] * 4000},
        ],
        ids=["vertex_count", "closure_bound"],
    )
    def test_oversized_complex_is_parse_error(self, capsys, tmp_path, data):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(data))
        start = time.perf_counter()
        code, out, err = run(capsys, "cohomology", "--complex", str(p), "--deg", "0")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert "exceeds" in err

    @pytest.mark.parametrize("vertex", [1.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize(
        "argv", [("cohomology", "--deg", "0"), ("group", "--variant", "ko")], ids=["cohomology", "group"]
    )
    def test_non_int_vertex_is_parse_error(self, capsys, tmp_path, vertex, argv):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"vertex_count": 3, "maximal_simplices": [[0, vertex]]}))
        code, out, err = run(capsys, *argv, "--complex", str(p))
        assert code == 2 and not out
        assert "not an int" in err

    @pytest.mark.parametrize("count", [3.7, 3.0, True, "3"], ids=["float", "integral_float", "bool", "string"])
    def test_non_int_vertex_count_is_parse_error(self, capsys, tmp_path, count):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"vertex_count": count, "maximal_simplices": [[0, 1]]}))
        code, out, err = run(capsys, "cohomology", "--complex", str(p), "--deg", "0")
        assert code == 2 and not out
        assert "is not an int" in err

    @pytest.mark.parametrize("deg", ["0", "1"])
    def test_modulus_one_is_the_trivial_group(self, capsys, deg):
        code, out, _ = run(capsys, "cohomology", "--complex", "@rp2", "--deg", deg, "--mod", "1")
        assert code == 0 and out.strip() == "0"

    def test_negative_modulus_is_domain_error(self, capsys):
        code, out, err = run(capsys, "cohomology", "--complex", "@rp2", "--deg", "1", "--mod", "-1")
        assert code == 1 and not out
        assert "modulus must be >= 0" in err


class TestBrauerVerbs:
    def test_group_report(self, capsys, tmp_path):
        p = tmp_path / "rp2.json"
        from supercoh import corpus

        p.write_text(json.dumps(corpus.complex_by_name("rp2").to_json_dict()))
        code, out, _ = run(capsys, "brauer", "--complex", str(p), "--variant", "ko", "--op", "group")
        assert code == 0
        assert out.strip() == "Z/8 ⊕ Z/4"

    def test_twist_shortcut(self, capsys):
        code, out, _ = run(capsys, "twist", "--complex", "@rp2", "--variant", "ko")
        assert code == 0 and out.strip() == "Z/4"

    def test_order(self, capsys, tmp_path):
        code, out, _ = run_rp2_order(capsys, tmp_path)
        assert code == 0 and out.strip() == "4"

    def test_equals_and_add(self, capsys, tmp_path):
        ident = {"variant": "ku", "a": [0], "b": [], "c": []}
        p = tmp_path / "e.json"
        p.write_text(json.dumps(ident))
        code, out, _ = run(
            capsys, "brauer", "--complex", "@point", "--variant", "ku",
            "--op", "equals", "--element", str(p), "--other", str(p),
        )
        assert code == 0 and out.strip() == "true"

    def test_add(self, capsys, tmp_path):
        p = str(rp2_w_file(tmp_path))
        code, out, _ = run(
            capsys, "brauer", "--complex", "@rp2", "--variant", "ko", "--op", "add", "--element", p, "--other", p
        )
        w = brauer.BrauerElement.from_json_dict(json.loads(Path(p).read_text()), corpus.complex_by_name("rp2"))
        assert code == 0 and json.loads(out) == brauer.add(w, w).to_json_dict()

    def test_add_without_other_is_parse_error(self, capsys, tmp_path):
        p = str(rp2_w_file(tmp_path))
        code, out, err = run(capsys, "brauer", "--complex", "@rp2", "--variant", "ko", "--op", "add", "--element", p)
        assert code == 2 and not out
        assert "--other" in err

    def test_element_of_another_variant_is_domain_error(self, capsys, tmp_path):
        p = str(rp2_w_file(tmp_path))
        code, out, err = run(capsys, "order", "--complex", "@rp2", "--variant", "ku", "--element", p)
        assert code == 1 and not out
        assert "does not match --variant" in err

    def test_missing_element_is_parse_error(self, capsys):
        code, _, err = run(capsys, "order", "--complex", "@rp2", "--variant", "ko")
        assert code == 2

    @pytest.mark.parametrize(
        "data",
        [
            [0, 1],
            {"a": 5, "b": [0], "c": [0]},
            {"a": "010", "b": [0], "c": [0]},
            # rp2 has 6 vertices, 15 edges and 10 triangles; Cochain refuses these
            {"a": [0.0] * 6, "b": [0] * 15, "c": [0] * 10},
            {"a": [0] * 6, "b": [True] + [0] * 14, "c": [0] * 10},
        ],
        ids=["list", "slot_not_a_list", "slot_a_string", "float_value", "bool_value"],
    )
    def test_malformed_element_is_parse_error(self, capsys, tmp_path, data):
        p = tmp_path / "el.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "order", "--complex", "@rp2", "--variant", "ko", "--element", str(p))
        assert code == 2 and not out
        assert "bad element JSON" in err


class TestOneBrauerHandler:
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("variant", ["ku", "ko"])
    @pytest.mark.parametrize("name", ["rp2", "klein", "rp2xrp2"])
    @pytest.mark.parametrize("verb", ["group", "twist", "order"])
    def test_shortcut_is_brauer_op(self, capsys, tmp_path, verb, name, variant, as_json):
        el = tmp_path / "el.json"
        x = corpus.complex_by_name(name)
        el.write_text(json.dumps(brauer.random_element(x, variant, random.Random(name)).to_json_dict()))
        argv = ["--complex", "@" + name, "--variant", variant, "--element", str(el)] + ["--json"] * as_json
        short = run(capsys, verb, *argv)
        assert short[0] == 0 and short[1]
        assert run(capsys, "brauer", "--op", verb, *argv) == short


class TestOperationsVerb:
    @pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
    def test_flags_are_those_of_is_cohomologous(self, capsys, name):
        # the report reads class coordinates; each flag here asks whether the
        # image is cohomologous to the zero cochain
        code, out, _ = run(capsys, "operations", "--complex", "@" + name, "--json")
        assert code == 0
        x = corpus.complex_by_name(name)
        expected = []
        for q in range(x.dim + 1):
            for i, cls in enumerate(simplicial.cohomology(x, q, 2)[1]):
                entry = {"degree": q, "index": i}
                for key, image in (
                    ("sq1_nonzero", operations.sq(1, cls)),
                    ("sq2_nonzero", operations.sq(2, cls)),
                    ("bockstein_nonzero", operations.bockstein(cls)),
                ):
                    c = image.cochain
                    entry[key] = not is_cohomologous(c, Cochain.zero(x, c.degree, c.modulus))
                expected.append(entry)
        assert json.loads(out)["table"] == expected


class TestOtherVerbs:
    def test_superline_group(self, capsys):
        code, out, _ = run(capsys, "superline", "--complex", "@s1", "--flavor", "real", "--op", "group")
        assert code == 0 and out.strip() == "Z/2 ⊕ Z/2"

    @pytest.mark.parametrize("flavor", ["real", "complex"])
    def test_superline_classify(self, capsys, flavor):
        argv = ("superline", "--complex", "@s1", "--flavor", flavor, "--op", "classify")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.strip() == "pi0 Z/2, pi1 Z/2, k-invariant nonzero"
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["k_invariant_nontrivial"] is True

    @pytest.mark.parametrize("flavor", ["real", "complex"])
    def test_superline_classify_reads_no_complex(self, capsys, tmp_path, flavor):
        # the classification data depend on the flavor alone: no --complex is
        # needed, and one that names no file is not read
        for extra in ((), ("--complex", str(tmp_path / "missing.json"))):
            code, out, _ = run(capsys, "superline", "--flavor", flavor, "--op", "classify", *extra)
            assert code == 0 and out.strip() == "pi0 Z/2, pi1 Z/2, k-invariant nonzero"

    def test_superline_group_needs_a_complex(self, capsys):
        code, out, err = run(capsys, "superline", "--flavor", "real")
        assert code == 2 and not out and "needs --complex" in err

    @pytest.mark.parametrize(
        "argv",
        [(), ("--enumerate", "Z/8"), ("--name", "nope")],
        ids=["no_flag", "enumerate_without_semicolon", "unknown_name"],
    )
    def test_classify_argument_is_parse_error(self, capsys, argv):
        code, out, _ = run(capsys, "classify", *argv)
        assert code == 2 and not out

    @pytest.mark.parametrize(
        "text,pi0",
        [("Z+Z/2", G(1, (2,))), ("triv", G.trivial()), ("0", G.trivial()), ("1", G.trivial())],
    )
    def test_classify_group_forms(self, capsys, text, pi0):
        code, out, _ = run(capsys, "classify", "--enumerate", text + ";Z/2", "--json")
        expected = stable2type.enumerate_symmetric_structures(pi0, G(0, (2,)))
        assert code == 0 and json.loads(out)["count"] == len(expected)

    def test_classify_unknown_group_is_parse_error(self, capsys):
        code, out, err = run(capsys, "classify", "--enumerate", "Q;Z/2")
        assert code == 2 and not out
        assert "cannot parse group component" in err

    def test_classify_name(self, capsys):
        code, out, _ = run(capsys, "classify", "--name", "ku")
        assert code == 0 and "nonzero" in out

    def test_classify_enumerate(self, capsys):
        code, out, _ = run(capsys, "classify", "--enumerate", "Z/8;Z/2")
        assert code == 0 and out.strip().startswith("2 ")

    def test_classify_bad_cyclic_order_is_parse_error(self, capsys):
        # Arabic-Indic digits, and more digits than int() reads
        for text in ("Z/-3;Z/2", "Z/0;Z/2", "Z/4;Z/x", "Z/٨;Z/٢", "Z/1" + "0" * 4400 + ";Z/2"):
            code, out, err = run(capsys, "classify", "--enumerate", text)
            assert code == 2 and not out
            assert "cyclic order" in err

    def test_classify_trivial_cyclic_summand(self, capsys):
        code, out, _ = run(capsys, "classify", "--enumerate", "Z/1;Z/2")
        assert code == 0 and out.strip().startswith("1 ")

    def test_dsv(self, capsys, tmp_path):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": "Q", "dim0": 1, "dim1": 1, "d0": [[1]], "d1": [[0]]}))
        code, out, _ = run(capsys, "dsv", "--input", str(p))
        assert code == 0
        assert "homology (0|0)" in out

    @pytest.mark.parametrize(
        "dims,d0,d1,invertible,virtual_dim",
        [((1, 0), [], [[]], True, 1), ((0, 1), [[]], [], True, -1), ((1, 1), [[1]], [[0]], False, 0)],
        ids=["unit", "odd line", "acyclic"],
    )
    def test_dsv_invertible_and_virtual_dim(self, capsys, tmp_path, dims, d0, d1, invertible, virtual_dim):
        # invertible up to equivalence: total homology dimension 1
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": "Q", "dim0": dims[0], "dim1": dims[1], "d0": d0, "d1": d1}))
        code, out, _ = run(capsys, "dsv", "--input", str(p), "--json")
        report = json.loads(out)
        assert code == 0
        assert (report["invertible"], report["unit_virtual_dim"]) == (invertible, virtual_dim)

    @pytest.mark.parametrize("dims", [(JSON_MAX_DIM + 1, 0), (-1, 0), (-(10**5), 10**5 + 10)])
    def test_dsv_dims_out_of_bound_are_parse_errors(self, capsys, tmp_path, dims):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": "F5", "dim0": dims[0], "dim1": dims[1], "d0": [], "d1": []}))
        code, out, err = run(capsys, "dsv", "--input", str(p))
        assert code == 2 and not out
        assert f"at most {JSON_MAX_DIM}" in err

    def test_one_sided_dsv_is_refused_at_once(self, tmp_path):
        # before the bound this built a 10^5 x 10^5 zero product and hung, so
        # it runs in a subprocess that a timeout can stop
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": "F5", "dim0": 10**5, "dim1": 0, "d0": [], "d1": []}))
        env = {**os.environ, "PYTHONPATH": str(Path(supercoh.__file__).parents[1])}
        argv = [sys.executable, "-m", "supercoh", "dsv", "--input", str(p)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
        assert done.returncode == 2 and not done.stdout
        assert f"at most {JSON_MAX_DIM}" in done.stderr

    def test_q_entry_with_a_huge_exponent_is_refused_at_once(self, tmp_path):
        # Fraction("1e30000000") computes 10^30000000 and ran for about a
        # minute, so the file runs in a subprocess that a timeout can stop;
        # the wall-time bound leaves room for interpreter start-up on a busy host
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": "Q", "dim0": 1, "dim1": 1, "d0": [["1e30000000"]], "d1": [["0"]]}))
        env = {**os.environ, "PYTHONPATH": str(Path(supercoh.__file__).parents[1])}
        argv = [sys.executable, "-m", "supercoh", "dsv", "--input", str(p)]
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
        assert time.perf_counter() - start < 5
        assert done.returncode == 2 and not done.stdout
        assert "'1e30000000'" in done.stderr

    @pytest.mark.parametrize("form", [str, int], ids=["string", "int"])
    def test_long_q_entries_are_refused_at_once(self, tmp_path, form):
        # a (16|16) file with d0 = 0 and 4000-digit integers in d1 is in the
        # written form, but rref over Q had not finished it after 120 s, so
        # it runs in a subprocess that a timeout can stop
        rng = random.Random(4000)
        d1 = [[form(rng.randrange(10**3999, 10**4000)) for _ in range(16)] for _ in range(16)]
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": "Q", "dim0": 16, "dim1": 16, "d0": [["0"] * 16] * 16, "d1": d1}))
        env = {**os.environ, "PYTHONPATH": str(Path(supercoh.__file__).parents[1])}
        argv = [sys.executable, "-m", "supercoh", "dsv", "--input", str(p)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
        assert done.returncode == 2 and not done.stdout
        assert f"4000 characters is longer than {JSON_MAX_Q_ENTRY}" in done.stderr

    @pytest.mark.parametrize("length", [JSON_MAX_Q_ENTRY, JSON_MAX_Q_ENTRY + 1])
    @pytest.mark.parametrize("entry", ["-9", "9/9", 9], ids=["negative", "fraction", "int"])
    def test_q_entry_length_bound(self, capsys, tmp_path, length, entry):
        # the bound counts the characters of an entry as written, its sign
        # and slash included
        pad = "9" * (length - len(str(entry)))
        entry = int(pad + "9") if type(entry) is int else entry[0] + pad + entry[1:]
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": "Q", "dim0": 1, "dim1": 1, "d0": [[entry]], "d1": [["0"]]}))
        code, out, err = run(capsys, "dsv", "--input", str(p))
        if length > JSON_MAX_Q_ENTRY:
            assert code == 2 and not out
            assert f"{length} characters is longer than {JSON_MAX_Q_ENTRY}" in err
        else:
            assert code == 0 and "homology (0|0)" in out

    def test_fp_entries_have_no_length_bound(self, capsys, tmp_path):
        # an F_p entry is reduced mod p as it is read
        p = tmp_path / "v.json"
        entry = "9" * (4 * JSON_MAX_Q_ENTRY)
        p.write_text(json.dumps({"field": "F5", "dim0": 1, "dim1": 1, "d0": [[entry]], "d1": [["0"]]}))
        code, out, _ = run(capsys, "dsv", "--input", str(p))
        assert code == 0 and "homology (0|0)" in out

    @pytest.mark.parametrize(
        "field, entry",
        [("Q", e) for e in ["1e5", "0.5", 0.5, 1.0, True, None, "1/0", " 1", "1/-2", "+1", "٣"]]
        + [("F5", e) for e in ["1_000", " 0 ", "٣", "1e5", "1/2", "+1", 0.5, 1.0, True, None]],
        ids=repr,
    )
    def test_entries_other_than_the_written_forms_are_parse_errors(self, capsys, tmp_path, field, entry):
        # DSV.to_json_dict writes n over F_p and n or n/m over Q
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": field, "dim0": 1, "dim1": 1, "d0": [[entry]], "d1": [["0"]]}))
        code, out, err = run(capsys, "dsv", "--input", str(p))
        assert code == 2 and not out
        assert "bad DSV JSON" in err

    def test_fp_entries_as_ints_and_strings(self, capsys, tmp_path):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": "F5", "dim0": 1, "dim1": 1, "d0": [["-5"]], "d1": [[6]]}))
        code, out, _ = run(capsys, "dsv", "--input", str(p))
        assert code == 0 and "dims (1|1)  homology (0|0)" in out

    @pytest.mark.parametrize(
        "dims, d0, d1",
        [((2, 0), [[1, 2, 3], [4]], [[7, 7, 7]]), ((2, 0), [], []), ((0, 2), [], [])],
    )
    def test_dsv_shapes_are_checked_with_a_zero_dimension(self, capsys, tmp_path, dims, d0, d1):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": "F5", "dim0": dims[0], "dim1": dims[1], "d0": d0, "d1": d1}))
        code, out, err = run(capsys, "dsv", "--input", str(p))
        assert code == 2 and not out
        assert "expected a" in err

    def test_dsv_with_a_zero_dimension(self, capsys, tmp_path):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": "F5", "dim0": 2, "dim1": 0, "d0": [], "d1": [[], []]}))
        code, out, _ = run(capsys, "dsv", "--input", str(p))
        assert code == 0 and "dims (2|0)  homology (2|0)" in out

    @pytest.mark.parametrize("dim0", [1.7, 1.0, True, "1"], ids=["float", "integral_float", "bool", "string"])
    def test_non_int_dsv_dims_are_parse_errors(self, capsys, tmp_path, dim0):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": "F5", "dim0": dim0, "dim1": 1, "d0": [[0]], "d1": [[0]]}))
        code, out, err = run(capsys, "dsv", "--input", str(p))
        assert code == 2 and not out
        assert "must be integers" in err

    @pytest.mark.parametrize("hv, hw", [(1, 2), (0, 2), (2, 2)])
    def test_dsv_tensor_at_the_size_limit_over_q(self, capsys, tmp_path, hv, hw):
        # two (4|4) Q DSVs with dense fraction entries, homology (h|h) by
        # construction; their (32|32) tensor product must have the homology
        # Kunneth gives: h0 = h0 h0' + h1 h1', h1 = h0 h1' + h1 h0'
        rng = random.Random(f"{hv} {hw}")
        paths = []
        for k, h in enumerate((hv, hw)):
            p = tmp_path / f"v{k}.json"
            p.write_text(json.dumps(_dense_q_dsv(rng, h, 4)))
            paths.append(str(p))
        code, out, _ = run(capsys, "dsv", "--input", paths[0], "--tensor", paths[1], "--json")
        assert code == 0
        report = json.loads(out)
        assert (report["dim0"], report["dim1"]) == (32, 32)
        assert report["homology"] == [hv * hw + hv * hw, hv * hw + hv * hw]

    def test_dsv_tensor_bound(self, capsys, tmp_path):
        # (4|4) (x) (4|4) has dimension 64, the bound; (4|4) (x) (4|5) has 72
        paths = []
        for dim1 in (4, 5):
            p = tmp_path / f"v{dim1}.json"
            zero = {"d0": [[0] * 4] * dim1, "d1": [[0] * dim1] * 4}
            p.write_text(json.dumps({"field": "F5", "dim0": 4, "dim1": dim1, **zero}))
            paths.append(str(p))
        code, out, _ = run(capsys, "dsv", "--input", paths[0], "--tensor", paths[0])
        assert code == 0 and "dims (32|32)" in out
        code, out, err = run(capsys, "dsv", "--input", paths[0], "--tensor", paths[1])
        assert code == 2 and not out
        assert f"dimension 72, above {JSON_MAX_DIM}" in err

    def test_unknown_verb_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_corpus_name(self, capsys):
        code, _, err = run(capsys, "cohomology", "--complex", "@nope", "--deg", "0")
        assert code == 2


class TestCapVariable:
    """classify --enumerate refuses more than stable2type.ENUM_CAP
    (4096) structures; element orders are exact."""

    def test_enumeration_over_the_cap_is_domain_error(self, capsys):
        # pi1[2] has 2^13 elements, one more doubling than the cap admits
        code, out, err = run(capsys, "classify", "--enumerate", "Z/2;" + "+".join(["Z/2"] * 13))
        assert code == 1 and not out
        assert "enumeration of 2^13 structures exceeds cap 4096" in err

    def test_enumeration_count_is_checked_first(self, capsys):
        # pi1[2] has 2^40 elements; the cap refuses before listing one
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "--enumerate", "Z/2;" + "+".join(["Z/2"] * 40))
        assert time.perf_counter() - start < 1
        assert code == 1 and not out
        assert "exceeds cap" in err


# the runs that read a file: the complex, an element and a DSV
_FILE_ARGVS = {
    "complex": ("cohomology", "--deg", "0", "--complex"),
    "element": ("order", "--complex", "@rp2", "--variant", "ko", "--element"),
    "dsv": ("dsv", "--input"),
}


class TestUndecodableFiles:
    """Every file the CLI cannot decode is a parse error, exit 2, whichever
    option names it."""

    @pytest.mark.parametrize("option", _FILE_ARGVS)
    def test_non_utf8_byte(self, capsys, tmp_path, option):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"field": "Q\xff"}')
        code, out, err = run(capsys, *_FILE_ARGVS[option], str(p))
        assert code == 2 and not out
        assert err.startswith("error: cannot read JSON") and "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int digits")
    @pytest.mark.parametrize("option", _FILE_ARGVS)
    def test_integer_literal_over_the_digit_limit(self, capsys, tmp_path, option):
        if sys.get_int_max_str_digits() == 0:
            pytest.skip("the int digit limit is switched off")
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        text = {
            "complex": f'{{"vertex_count": {digits}, "maximal_simplices": [[0]]}}',
            "element": f'{{"a": [{digits}], "b": [], "c": []}}',
            "dsv": f'{{"field": "F5", "dim0": 1, "dim1": 0, "d0": [], "d1": [[{digits}]]}}',
        }[option]
        p = tmp_path / "long.json"
        p.write_text(text)
        code, out, err = run(capsys, *_FILE_ARGVS[option], str(p))
        assert code == 2 and not out
        assert err.startswith("error: cannot read JSON") and "Traceback" not in err


class TestFieldTag:
    """The "field" tag of a DSV file is Q, or F and a prime p >= 2 in ASCII
    digits; anything else is a parse error."""

    @pytest.mark.parametrize("tag", ["F0", "F1", "F 5", "F٥", "F5 ", "f5", "F", "FQ", "q", 5, None, ["F5"]], ids=repr)
    def test_other_tags_are_parse_errors(self, capsys, tmp_path, tag):
        # the entry 1/2 is no F_p entry: F0 was read as Q, and exited 0
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": tag, "dim0": 1, "dim1": 1, "d0": [["1/2"]], "d1": [["0"]]}))
        code, out, err = run(capsys, "dsv", "--input", str(p))
        assert code == 2 and not out
        assert err.startswith("error: ") and "field" in err and "Traceback" not in err

    @pytest.mark.parametrize("tag", ["F4", "F1000000007000000009"])
    def test_composite_characteristic_is_a_parse_error(self, capsys, tmp_path, tag):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": tag, "dim0": 1, "dim1": 1, "d0": [["1"]], "d1": [["0"]]}))
        code, out, err = run(capsys, "dsv", "--input", str(p))
        assert code == 2 and not out
        assert "prime" in err

    # 2^61 - 1 and 2^64 - 59, the largest prime below the bound
    @pytest.mark.parametrize("tag", ["Q", "F2", "F1000000007", "F2305843009213693951", "F18446744073709551557"])
    def test_written_tags(self, capsys, tmp_path, tag):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"field": tag, "dim0": 1, "dim1": 1, "d0": [["1"]], "d1": [["0"]]}))
        code, out, _ = run(capsys, "dsv", "--input", str(p))
        assert code == 0 and "dims (1|1)  homology (0|0)" in out

    @pytest.mark.parametrize("p", [2**64, 10**4299 + 7], ids=["2^64", "4300 digits"])
    def test_characteristic_at_or_above_the_bound_is_refused_at_once(self, capsys, tmp_path, p):
        # 10^4299 + 7 has no prime factor up to 41, so with no bound one
        # Miller-Rabin round on it took about 9 s
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"field": f"F{p}", "dim0": 1, "dim1": 1, "d0": [["1"]], "d1": [["0"]]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "dsv", "--input", str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 2 and not out
        assert "not below 2^64" in err


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run(capsys, "brauer", "--complex", "@klein", "--variant", "ko", "--op", "group", "--json")
        _, out2, _ = run(capsys, "brauer", "--complex", "@klein", "--variant", "ko", "--op", "group", "--json")
        assert out1 == out2

    def test_corpus_roundtrip(self, tmp_path, capsys):
        from supercoh import corpus
        from supercoh.simplicial import SimplicialComplex

        for name in corpus.CORPUS_NAMES:
            x = corpus.complex_by_name(name)
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(x.to_json_dict()))
            again = SimplicialComplex.from_json_dict(json.loads(p.read_text()))
            assert again == x


class TestVerifyVerb:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "superline")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        assert out.strip().splitlines()[-1] == "28/28 checks passed"

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2


# SHA-256 of (argv, exit code, stdout) of every run of _pinned_runs, as
# test_successful_output_is_pinned takes it.  A change that alters the CLI's
# output on purpose updates it and says so.
CLI_OUTPUT_SHA256 = "c1f65413c3380cda403dfc4e0ef50add9fe0168f88b405da79d647384616f503"


def _pinned_runs():
    """The argv lists of test_successful_output_is_pinned; the DSV runs read
    the files that test writes into the working directory."""
    for name in corpus.CORPUS_NAMES:
        x = "@" + name
        dim = corpus.complex_by_name(name).dim
        for q in range(dim + 2):
            for n in (0, 2, 3, 4):
                yield ["cohomology", "--complex", x, "--deg", str(q), "--mod", str(n), "--json"]
        yield ["operations", "--complex", x, "--json"]
        for verb in ("group", "twist"):
            for variant in ("ku", "ko"):
                yield [verb, "--complex", x, "--variant", variant]
        for flavor in ("real", "complex"):
            yield ["superline", "--complex", x, "--flavor", flavor]
    for entry in sorted(stable2type.catalog()):
        yield ["classify", "--name", entry, "--json"]
    yield ["classify", "--enumerate", "Z/8;Z/2", "--json"]
    for field in ("F5", "Q"):
        for i in range(4):
            yield ["dsv", "--input", f"{field}-{i}.json", "--json"]
            yield ["dsv", "--input", f"{field}-{i}.json", "--tensor", f"{field}-{(i + 1) % 4}.json", "--json"]
    yield ["verify", "--suite", "all", "--json"]


def test_successful_output_is_pinned(capsys, tmp_path, monkeypatch):
    """Every run of _pinned_runs exits 0 and prints what the digest was taken of."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(25)
    for field in (dsv.Field(5), dsv.QQ):
        for i in range(4):
            (tmp_path / f"{field}-{i}.json").write_text(json.dumps(_random_dsv(field, rng).to_json_dict()))
    digest = hashlib.sha256()
    for argv in _pinned_runs():
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        digest.update(json.dumps([argv, code, out]).encode())
    assert digest.hexdigest() == CLI_OUTPUT_SHA256
