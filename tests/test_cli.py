import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import padicmeasure
from padicmeasure.cli import _USAGE_ERRORS, run
from padicmeasure.measure import PAdicContext, Weight
from padicmeasure.presburger import LinearTerm, parse
from padicmeasure.ring import (
    ball_presentation,
    delta_presentation,
    scalar_mul,
    to_document,
    weighted_presentation,
)

CTX2 = PAdicContext(2)


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, pres):
    path = tmp_path / name
    path.write_text(json.dumps(to_document(pres)))
    return str(path)


@pytest.fixture
def family(tmp_path):
    w = Weight.make(1, LinearTerm.constant(-1), {"l": -1})
    pres = weighted_presentation(
        CTX2, parse("0 <= l /\\ l < s"), w, ["s"], parse("s >= 0")
    )
    return pres, write(tmp_path, "family.json", pres)


def test_measure_delta3_value(tmp_path):
    path = write(tmp_path, "d3.json", delta_presentation(CTX2, 3))
    code, out, err = call(["measure", path, "-p", "2", "--at"])
    assert (code, out.strip()) == (0, "1/7")


def test_eq_scaled_small_ball(tmp_path):
    left = write(tmp_path, "l.json", scalar_mul(2, ball_presentation(CTX2, 1)))
    right = write(tmp_path, "r.json", ball_presentation(CTX2, 0))
    code, out, _ = call(["eq", left, right, "-p", "2"])
    assert (code, out.strip()) == (0, "Equal")


def test_eq_not_equal_exit_one(tmp_path):
    left = write(tmp_path, "l.json", scalar_mul(3, ball_presentation(CTX2, 1)))
    right = write(tmp_path, "r.json", ball_presentation(CTX2, 0))
    code, out, _ = call(["eq", left, right, "-p", "2"])
    assert code == 1 and out.startswith("NotEqual")


def test_prime_validation_exit_two(tmp_path):
    path = write(tmp_path, "d3.json", delta_presentation(CTX2, 3))
    code, _, err = call(["measure", path, "-p", "4", "--at"])
    assert code == 2 and "prime" in err


def test_prime_past_the_bound_exit_two(tmp_path):
    path = write(tmp_path, "d1.json", delta_presentation(CTX2, 1))
    assert call(["measure", path, "-p", str(2**64 + 13)]) == (
        2, "", "error: p must be a prime below 2^64, got 18446744073709551629\n")


def test_usage_errors_name_no_subclass_of_another_entry():
    # an entry under another one is caught by that one already
    assert not [(a, b) for a in _USAGE_ERRORS for b in _USAGE_ERRORS
                if a is not b and issubclass(a, b)]


def test_measure_symbolic_output(family):
    _, path = family
    code, out, _ = call(["measure", path, "-p", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "sum[ s - 1 >= 0 ; 1 ; p^(0) ]",
        "sum[ s - 1 >= 0 ; -1 ; p^(-s) ]",
    ]


def test_measure_at_point(family):
    _, path = family
    code, out, _ = call(["measure", path, "-p", "2", "--at", "s=3"])
    assert (code, out.strip()) == (0, "7/8")


def test_normalize_round_trip(tmp_path, family):
    pres, path = family
    cert_path = tmp_path / "cert.json"
    code, out, _ = call(["normalize", path, "-p", "2", "--cert", str(cert_path)])
    assert code == 0
    lines = out.splitlines()
    ell = int(lines[0].split()[1])
    basic_path = tmp_path / "basic.json"
    basic_path.write_text("\n".join(lines[1:]))
    scaled_path = write(tmp_path, "scaled.json", scalar_mul(ell, pres))
    code, out, _ = call(["eq", str(scaled_path), str(basic_path), "-p", "2"])
    assert (code, out.strip()) == (0, "Equal")
    code, out, _ = call(["certify", str(cert_path), "-p", "2"])
    assert (code, out.strip()) == (0, "valid")


def test_certify_rejects_tampering(tmp_path, family):
    pres, path = family
    cert_path = tmp_path / "cert.json"
    call(["normalize", path, "-p", "2", "--cert", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    doc["steps"][0]["after"]["generators"][0]["coeff"] = "7/3"
    cert_path.write_text(json.dumps(doc))
    code, out, _ = call(["certify", str(cert_path), "-p", "2"])
    assert code == 1 and out.strip() == "invalid step 0"


def test_qe_subcommand():
    code, out, _ = call(["qe", "--formula", "E x. a = 2*x"])
    assert (code, out.strip()) == (0, "2 | a")
    assert call(["qe", "--formula", "E x. x > 0 /\\ x < 1"]) == (0, "false\n", "")
    code, _, err = call(["qe", "--formula", "l < "])
    assert code == 2


def test_syntax_error_names_its_position_once():
    code, out, err = call(["qe", "--formula", "x = "])
    assert (code, out) == (2, "")
    assert err == "error: expected a term, found 'end of input' (line 1, column 5)\n"


def test_qe_expansion_budget_exit_two():
    # in a child process, so that a missing budget fails on the timeout
    # instead of filling this process's memory
    src = Path(padicmeasure.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "padicmeasure.cli", "qe", "--formula",
         "E x. 3*x = y /\\ 1000000007 | x + y"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("formula", [
    "1000003 | l + 2*s /\\ l >= 0 /\\ 3*l <= s",
    "1000003 | l /\\ l >= 0 /\\ l <= s",
])
def test_count_expansion_budget_exit_two(formula):
    # a huge modulus stops at a budget: Cooper's, in the conjunctive
    # feasibility test over coupled rows (the first formula), or the split
    # budget of triangulation (the second, whose rows separate once s is
    # dropped); in a child process, so that a missing budget fails on the
    # timeout instead of filling this process's memory
    src = Path(padicmeasure.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "padicmeasure.cli", "count", "--formula", formula,
         "--lambda-vars", "l", "-p", "2", "--at", "s=6"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1


_HUGE_MODULUS = "l1 >= 0 /\\ l1 <= s /\\ 99991 | l1 + s"


@pytest.mark.parametrize("verb", ["count", "measure"])
def test_split_budget_exit_two(tmp_path, verb):
    # a triangulation that would split into one branch per residue of a huge
    # modulus stops at the split budget; in a child process, so that a
    # missing budget fails on the timeout instead of filling this process
    if verb == "count":
        args = ["count", "--formula", _HUGE_MODULUS, "--lambda-vars", "l1",
                "--domain", "s >= 0", "-p", "2", "--at", "s=5"]
    else:
        pres = weighted_presentation(CTX2, parse(_HUGE_MODULUS), Weight.constant(0),
                                     ["s"], parse("s >= 0"))
        args = ["measure", write(tmp_path, "huge.json", pres), "-p", "2", "--at", "s=5"]
    src = Path(padicmeasure.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "padicmeasure.cli", *args],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: splitting l1 needs more than")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def _one_cell_document(lam, c, b, param_vars=(), param_domain="true"):
    return {"prime": 2, "param_vars": list(param_vars), "param_domain": param_domain,
            "generators": [{"coeff": "1", "dims": 1,
                            "coords": [{"center": "0", "level": 1, "ac": 1}],
                            "lambda_formula": lam, "weight": {"r": 1, "c": c, "b": [b]}}]}


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


_HUGE_CONSTANT = _one_cell_document("0 <= l1 /\\ l1 <= 3", "100000000000", 0)
_HUGE_SLOPE = _one_cell_document("l1 >= 0", "0", -100000000000)
_RAY_OVER_S = _one_cell_document("l1 >= s", "0", -1, ["s"], "s >= 0")


@pytest.mark.parametrize("verb, docs, at", [
    ("measure", [_HUGE_CONSTANT], []),
    ("eq", [_HUGE_CONSTANT, _HUGE_CONSTANT], []),
    ("measure", [_HUGE_SLOPE], []),
    ("normalize", [_HUGE_SLOPE], []),
    ("measure", [_RAY_OVER_S], ["--at", "s=100000000000"]),
    ("measure", [_RAY_OVER_S], ["--at", "s=1000000"]),
])
def test_huge_powers_of_p_exit_two(tmp_path, verb, docs, at):
    # a weight or an --at point that asks for a power of p past LEVEL_BITS
    # stops in algebra.power_fraction before the power is built; in a child
    # process whose address space is capped, so that an unbounded power
    # fails on the cap instead of filling memory
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    src = Path(padicmeasure.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "padicmeasure.cli", verb, *paths, "-p", "2", *at],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=60, preexec_fn=_cap_address_space)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: power 2^")
    assert done.stderr.endswith(", the bound for p = 2\n")
    assert done.stderr.count("\n") == 1


def test_count_subcommand():
    args = ["count", "--formula", "0 <= l /\\ l < s /\\ 2 | l",
            "--lambda-vars", "l", "--domain", "s >= 0", "-p", "2"]
    code, out, _ = call(args)
    assert code == 0 and all(line.startswith("count[") for line in out.splitlines())
    code, out, _ = call(args + ["--at", "s=9"])
    assert (code, out.strip()) == (0, "5")


@pytest.mark.parametrize("value", ["1_0", "\u0663", "9/2"])
def test_count_at_takes_ascii_integers_only(value):
    code, out, err = call(["count", "--formula", "0 <= l /\\ l < s", "--lambda-vars", "l",
                           "-p", "2", "--at", f"s={value}"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("at, error", [
    ("s=1,s=2", "--at assigns s twice"),
    ("s=1,1x=3", "bad variable name '1x'"),
    ("s=1,E=1", "bad variable name 'E'"),
])
def test_count_at_rejects_malformed_names(at, error):
    code, out, err = call(["count", "--formula", "0 <= l /\\ l < s", "--lambda-vars", "l",
                           "-p", "2", "--at", at])
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_count_at_names_missing_parameters():
    code, out, err = call(["count", "--formula", "l = 2*x /\\ l >= 0 /\\ l <= s",
                           "--lambda-vars", "l", "-p", "2", "--at", "s=6"])
    assert (code, out) == (2, "")
    assert err == "error: --at misses parameters ['x']\n"


@pytest.mark.parametrize("at", [[], ["--at", ""]])
def test_count_rejects_a_domain_over_counted_variables(at):
    # once a count guarded by l <= 1 (exit 0), or a KeyError at a point
    code, out, err = call(["count", "--formula", "l >= 0 /\\ l <= 3", "--lambda-vars", "l",
                           "--domain", "l <= 1", "-p", "2"] + at)
    assert (code, out) == (2, "")
    assert err == "error: the parameter domain names ['l'], which are not parameters\n"


def test_count_quantified_formula():
    code, out, _ = call(["count", "--formula", "E x. l = 2*x /\\ l >= 0 /\\ l <= s",
                         "--lambda-vars", "l", "-p", "2", "--at", "s=6"])
    assert (code, out.strip()) == (0, "4")


def test_count_infinite_fiber_exit_three():
    code, _, err = call(["count", "--formula", "l >= s", "--lambda-vars", "l", "-p", "2"])
    assert code == 3


def test_eq_needs_constant_range_widths(tmp_path):
    # the zero test rewrites the domain as affine images of N^m; no variable
    # order of this cone has constant range widths, so eq stops with exit 2
    domain = parse("0 <= s /\\ s <= t /\\ t <= 2*s")
    ball = ball_presentation(CTX2, 0, param_vars=("s", "t"), param_domain=domain)
    left = write(tmp_path, "l.json", ball)
    right = write(tmp_path, "r.json", scalar_mul(2, ball))
    code, out, err = call(["eq", left, right, "-p", "2"])
    assert (code, out, err) == (2, "", "error: parametric range width along s\n")


def test_measure_divergence_exit_three(tmp_path):
    bad = weighted_presentation(CTX2, parse("l >= 0"), Weight.constant(0))
    path = write(tmp_path, "bad.json", bad)
    code, _, err = call(["measure", path, "-p", "2", "--at"])
    assert code == 3


_UNIT_COORD = {"center": "0", "level": 1, "ac": 1}


def _one_coordinate_document(tmp_path, **fields):
    path = tmp_path / "doc.json"
    generator = {"coeff": "1", "coords": [_UNIT_COORD]}
    generator.update(fields.pop("generator", {}))
    path.write_text(json.dumps({"prime": 2, **fields, "generators": [generator]}))
    return str(path)


def test_measure_weight_integral_on_the_domain(tmp_path):
    # the weight folds to s/2, an integer on the domain 2 | s only
    path = _one_coordinate_document(
        tmp_path, param_vars=["s"], param_domain="2 | s /\\ s >= 0",
        generator={"lambda_formula": "0 <= l1 /\\ l1 <= 3",
                   "weight": {"r": 2, "c": "s + 2", "b": [2]}})
    code, out, err = call(["measure", path, "-p", "2", "--at", "s=4"])
    assert (code, out.strip(), err) == (0, "16", "")


def test_measure_at_a_point_outside_the_domain_exits_two(tmp_path):
    path = _one_coordinate_document(tmp_path, param_vars=["s"], param_domain="s >= 0",
                                    generator={"lambda_formula": "0 <= l1 /\\ l1 <= s"})
    assert call(["measure", path, "-p", "2", "--at", "s=-1"]) == (
        2, "", "error: {'s': -1} violates the parameter domain\n")


def _generator(coords, lam, coeff="1"):
    return {"coeff": coeff, "coords": coords, "lambda_formula": lam}


def test_measure_of_generators_that_cancel_prints_zero(tmp_path):
    # cells that differ only in their centers have one measure, so the difference is 0
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"prime": 2, "generators": [
        _generator([_UNIT_COORD], "l1 >= 0"),
        _generator([{**_UNIT_COORD, "center": "1"}], "l1 >= 0", "-1")]}))
    assert call(["measure", str(path), "-p", "2"]) == (0, "0\n", "")


def test_oracle_without_a_downward_tail_bound_exits_two(tmp_path):
    # l1 runs to -inf, where the cell's volume p^-l1 grows: no window bounds the tail
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"prime": 2, "generators": [
        _generator([_UNIT_COORD, _UNIT_COORD], "l1 <= 0 /\\ l2 >= 0")]}))
    assert call(["oracle", str(path), "-p", "2", "--at", ""]) == (
        2, "", "error: no tail bound along l1 towards -inf\n")


def test_measure_free_lambda_variable_exit_three(tmp_path):
    # the weight cancels the volume of l1, which the formula leaves free
    path = _one_coordinate_document(
        tmp_path, generator={"lambda_formula": "true", "weight": {"r": 1, "c": "0", "b": [1]}})
    code, out, _ = call(["measure", path, "-p", "2", "--at"])
    assert (code, out) == (3, "")


def test_parameter_named_like_a_lambda_variable_exit_two(tmp_path):
    path = _one_coordinate_document(tmp_path, param_vars=["l1"],
                                    generator={"lambda_formula": "0 <= l1"})
    code, out, err = call(["measure", path, "-p", "2", "--at", "l1=3"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def _bounded_document(**generator):
    # measures 15/16 at -p 2 until a field below breaks it
    return {"prime": 2, "generators": [{"coeff": "1", "coords": [_UNIT_COORD],
                                        "lambda_formula": "0 <= l1 /\\ l1 <= 3", **generator}]}


_COUNT = ["count", "--formula", "0 <= l /\\ l <= 3", "--lambda-vars", "l"]


@pytest.mark.parametrize("argv, doc, at", [
    (["measure"], _bounded_document(coords=[{**_UNIT_COORD, "level": 0}]), ""),
    (["measure"], _bounded_document(coords=[{**_UNIT_COORD, "ac": 2}]), ""),
    (["measure"], _bounded_document(dims=3), ""),
    (["measure"], _bounded_document(weight={"r": 1, "c": "0", "b": [1, 1]}), ""),
    (["measure"], _bounded_document(weight={"r": 0, "c": "0", "b": [1]}), ""),
    (["measure"], {**_bounded_document(), "prime": 3}, ""),
    (["certify"], {"steps": [{"rule": "R1", "before": {"prime": 3}, "after": {"prime": 3}}]}, ""),
    (["measure"], _bounded_document(), "s"),
    (["measure"], {**_bounded_document(), "param_vars": ["s", "s"]}, ""),
    (["measure"], {**_bounded_document(), "param_vars": ["s"], "param_domain": "t >= 0"}, ""),
    (["measure"], _bounded_document(), "s=1"),
    (_COUNT, None, "s=1"),
    (["oracle"], _bounded_document(), "s=1"),
], ids=["level_zero", "ac_not_a_unit", "dims", "weight_b_length", "weight_r_zero",
        "document_prime", "certificate_prime", "at_without_value", "repeated_parameter",
        "undeclared_domain_variable", "measure_at_non_parameter", "count_at_non_parameter",
        "oracle_at_non_parameter"])
def test_input_error_exit_two(tmp_path, argv, doc, at):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path)]
    code, out, err = call(argv + ["-p", "2", "--at", at])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_coordinate_level_past_its_bound_exit_two(tmp_path):
    # level 10^12 once hung building p^level, and level 100000 ended in
    # Python's limit on converting the coefficient 2^-100000 to a string
    def measure_at_level(level):
        doc = {"prime": 2, "generators": [{
            "coeff": "1", "coords": [{"center": "0", "level": level, "ac": 1}],
            "lambda_formula": "l1 >= 0"}]}
        path = tmp_path / f"level{level}.json"
        path.write_text(json.dumps(doc))
        return call(["measure", str(path), "-p", "2", "--at"])

    for level in (10**12, 100000):
        assert measure_at_level(level) == (
            2, "", f"error: coordinate level {level} is above 2048, the bound for p = 2\n")
    assert measure_at_level(3) == (0, "1/4\n", "")


def test_coordinate_level_sum_past_its_bound_exit_two(tmp_path):
    # seven coordinates at level 2048 each pass their own bound, but the
    # cell's measure 2^-14336 ended in Python's limit on printing integers
    doc = {"prime": 2, "generators": [{
        "coeff": "1", "coords": [{"center": "0", "level": 2048, "ac": 1}] * 7,
        "lambda_formula": " /\\ ".join(f"l{i} >= 0" for i in range(1, 8))}]}
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(doc))
    assert call(["measure", str(path), "-p", "2", "--at"]) == (
        2, "", "error: coordinate levels sum to 14336, above 2048, the bound for p = 2\n")


def test_at_names_no_other_variable(tmp_path):
    # a name that is not a parameter was once ignored, and measure printed 1/3
    path = write(tmp_path, "delta.json", delta_presentation(CTX2, 1))
    assert call(["measure", path, "-p", "2", "--at", "s=1,t=2"]) == (
        2, "", "error: --at names ['s', 't'], which are not parameters\n")


@pytest.mark.parametrize("argv, doc", [
    (["qe", "--formula", "(" * 3000 + "x = 1" + ")" * 3000], None),
    (["measure"], _bounded_document(lambda_formula="(" * 2000 + "0 <= l1" + ")" * 2000)),
], ids=["qe_formula", "lambda_formula"])
def test_deeply_nested_formula_exit_two(tmp_path, argv, doc):
    # past the parser's recursion depth: one error line, not a traceback
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path), "-p", "2"]
    code, out, err = call(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: nesting too deep to parse") and err.count("\n") == 1


def test_count_rejects_repeated_lambda_variables():
    code, out, err = call(["count", "--formula", "0 <= l /\\ l < s", "--lambda-vars", "l,l",
                           "-p", "2"])
    assert (code, out, err) == (2, "", "error: --lambda-vars names l twice\n")


def test_oracle_subcommand(tmp_path):
    path = write(tmp_path, "d1.json", delta_presentation(CTX2, 1))
    code, out, _ = call(["oracle", path, "-p", "2", "--at", "--depth", "8", "--window", "12"])
    assert code == 0 and out.startswith("bracket[")


def test_output_stability(family):
    _, path = family
    first = call(["measure", path, "-p", "2"])
    second = call(["measure", path, "-p", "2"])
    assert first == second


@pytest.mark.parametrize("text", ["[]", '"x"'])
@pytest.mark.parametrize("verb", ["measure", "eq", "normalize", "oracle", "certify"])
def test_non_object_document_exit_two(tmp_path, verb, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    documents = [str(path)] * (2 if verb == "eq" else 1)
    code, out, err = call([verb, *documents, "-p", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("verb", ["measure", "eq", "normalize", "oracle", "certify"])
def test_deeply_nested_document_exit_two(tmp_path, verb):
    # the JSON reader recurses once per nesting level; past the recursion
    # limit its RecursionError once ended in a traceback and exit code 1,
    # which means NotEqual
    path = tmp_path / "doc.json"
    path.write_text("[" * 200000)
    documents = [str(path)] * (2 if verb == "eq" else 1)
    assert call([verb, *documents, "-p", "2"]) == (
        2, "", f"error: document {path} nests too deeply\n")


@pytest.mark.parametrize("verb,doc", [
    ("certify", {"steps": [1]}),
    ("certify", {"steps": {"rule": "R1"}}),
    ("certify", {"steps": [{"rule": "R1", "before": [], "after": []}]}),
    ("measure", {"prime": 2, "generators": [1]}),
    ("measure", {"prime": 2, "generators": [{"coeff": "1", "coords": [1]}]}),
    ("measure", {"prime": 2, "generators": [{"coeff": "1", "coords": 1}]}),
    ("measure", {"prime": 2, "generators": [
        {"coeff": "1", "coords": [_UNIT_COORD], "weight": [1]}]}),
    ("measure", {"prime": 2, "generators": [{"coeff": [1], "coords": []}]}),
    ("measure", {"prime": 2, "generators": [
        {"coeff": "1", "coords": [], "lambda_formula": 5}]}),
    ("measure", {"prime": 2, "param_vars": 5}),
    ("measure", {"prime": [2]}),
    ("measure", {"prime": 2, "generators": [{"coeff": "1/0", "coords": []}]}),
    ("measure", {"prime": 2, "generators": [
        {"coeff": "1", "coords": [{**_UNIT_COORD, "center": "1/0"}]}]}),
    ("measure", {"prime": 2, "generators": [{"coeff": "1", "coords": [{"point": "1/0"}]}]}),
    # int() alone reads these as 10 and 3
    ("measure", {"prime": 2, "generators": [{"coeff": "1_0", "coords": []}]}),
    ("measure", {"prime": 2, "generators": [{"coeff": "\u0663", "coords": []}]}),
    ("certify", {"steps": [{"rule": "R1", "before": {"prime": 2}, "after": {
        "prime": 2, "generators": [{"coeff": "1/0", "coords": []}]}}]}),
    ("certify", {"steps": [{"rule": "R1", "before": {"prime": 2}, "after": {
        "prime": 2, "generators": [{"coeff": "1", "coords": [{"point": "1/0"}]}]}}]}),
    # with a string rule and note these steps replay valid
    ("certify", {"steps": [{"rule": 7, "before": {"prime": 2}, "after": {"prime": 2}}]}),
    ("certify", {"steps": [{"rule": None, "before": {"prime": 2}, "after": {"prime": 2}}]}),
    ("certify", {"steps": [{"rule": "R1", "note": 3, "before": {"prime": 2},
                            "after": {"prime": 2}}]}),
    ("certify", {"steps": [{"rule": "R1", "note": None, "before": {"prime": 2},
                            "after": {"prime": 2}}]}),
    # a certificate lists its steps, even when it has none
    ("certify", {}),
    ("certify", _bounded_document()),
], ids=["step", "steps", "before", "generator", "coord", "coords", "weight",
        "coeff", "lambda_formula", "param_vars", "prime", "zero_coeff", "zero_center",
        "zero_point", "underscore_coeff", "arabic_indic_coeff", "certify_zero_coeff",
        "certify_zero_point", "numeric_rule", "null_rule", "numeric_note", "null_note",
        "certify_no_steps", "certify_presentation"])
def test_non_object_entry_exit_two(tmp_path, verb, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = call([verb, str(path), "-p", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_certificate_with_no_steps_is_valid(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"steps": []}))
    assert call(["certify", str(path), "-p", "2"]) == (0, "valid\n", "")


_STEP = {"rule": "R1", "before": {"prime": 2}, "after": {"prime": 2}}


@pytest.mark.parametrize("verb, doc, message", [
    ("measure", _bounded_document(coords=[{"center": "0", "level": 1}]),
     "coordinate 0 of generator 0 of document {path} has no field 'ac'"),
    ("measure", _bounded_document(coords=[{"point": "1"}, {"level": 1, "ac": 1}]),
     "coordinate 1 of generator 0 of document {path} has no field 'center'"),
    ("measure", _bounded_document(weight={"c": "0", "b": [1]}),
     "the weight of generator 0 of document {path} has no field 'r'"),
    ("measure", {"prime": 2, "generators": [{"coeff": "1", "coords": []}, {"coords": []}]},
     "generator 1 of document {path} has no field 'coeff'"),
    ("certify", {"steps": [_STEP, {"rule": "R1", "before": {"prime": 2}}]},
     "step 1 has no field 'after'"),
    ("certify", {"steps": [{**_STEP, "before": {}}]},
     "the before of step 0 has no field 'prime'"),
    ("certify", {"steps": [{**_STEP, "after": _bounded_document(weight={"r": 1, "b": [0]})}]},
     "the weight of generator 0 of the after of step 0 has no field 'c'"),
    ("certify", {}, "the certificate has no field 'steps'"),
], ids=["coordinate_ac", "coordinate_center", "weight_r", "generator_coeff", "step_after",
        "step_prime", "step_weight_c", "certificate_steps"])
def test_missing_field_is_named(tmp_path, verb, doc, message):
    # a required field that is not there is named with the object that lacks
    # it and the document it sits in, not printed as the bare key of a KeyError
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    message = message.format(path=path)
    assert call([verb, str(path), "-p", "2"]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("verb", ["measure", "eq", "count"])
def test_quantified_domain_reads_as_its_elimination(tmp_path, family, verb):
    pres, _ = family
    outputs = []
    for domain in ("E x. s = 2*x", "2 | s"):
        doc = {**to_document(pres), "param_domain": domain}
        left, right = tmp_path / "left.json", tmp_path / "right.json"
        left.write_text(json.dumps(doc))
        doubled = [{**g, "coeff": "2"} for g in doc["generators"]]
        right.write_text(json.dumps({**doc, "generators": doubled}))
        argv = {
            "measure": ["measure", str(left)],
            "eq": ["eq", str(left), str(right)],
            "count": ["count", "--formula", "0 <= l /\\ l < s /\\ 2 | l",
                      "--lambda-vars", "l", "--domain", domain],
        }[verb]
        outputs.append(call(argv + ["-p", "2"]))
    assert outputs[0] == outputs[1]
    code, out, err = outputs[0]
    assert code == (1 if verb == "eq" else 0) and out and not err


@pytest.mark.parametrize("name", ["1x", "true", "@i", "s t"])
def test_bad_variable_name_exit_two(tmp_path, name):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"prime": 2, "param_vars": [name], "generators": []}))
    count = ["count", "--formula", "0 <= l /\\ l <= 3", "--lambda-vars", f"l,{name}"]
    for argv in (["measure", str(path)], count):
        code, out, err = call(argv + ["-p", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


def test_non_integral_increment_exit_two(tmp_path):
    # l1 moves by 2 per step of l2, so the weight grows by 3/2 along l1
    w = Weight.make(2, LinearTerm.constant(0), {"l1": 1, "l2": 1})
    path = write(tmp_path, "half.json",
                 weighted_presentation(CTX2, parse("l1 = 2*l2 /\\ l2 >= 0"), w))
    for verb in ("measure", "normalize"):
        code, out, err = call([verb, path, "-p", "2"])
        assert (code, out) == (2, "")
        assert err == "error: exponent increment 3/2 along l1 is not an integer\n"


@pytest.mark.parametrize("lam, weight, value", [
    ("l1 = 2*l2 + 1 /\\ l2 >= 1 /\\ l2 <= 6",
     Weight.make(3, LinearTerm.constant(2), {"l1": -2, "l2": -2}), "1365/4096"),
    ("l1 = 2*l2 /\\ l2 >= 0", Weight.make(4, LinearTerm.constant(0), {"l1": -1, "l2": -2}), "2"),
])
def test_weight_integral_on_the_fiber_exit_zero(tmp_path, lam, weight, value):
    # the weights are -2*l2 and -l2 on the fibers, though their coefficients
    # give the increments -4/3 and -1/2 along l1 before l2 is substituted
    path = write(tmp_path, "fiber.json", weighted_presentation(CTX2, parse(lam), weight))
    assert call(["measure", path, "-p", "2", "--at"]) == (0, f"{value}\n", "")
    code, out, err = call(["normalize", path, "-p", "2"])
    assert (code, err) == (0, "") and out.startswith("ell ")


def test_usage_error_exit_two():
    code, _, _ = call(["measure"])  # missing document and prime
    assert code == 2
    code, _, _ = call(["bogus"])
    assert code == 2


# Measures whose guards carry divisibility atoms, over parameter domains of
# two pieces, and count pieces over such domains: the printed guards, their
# atom order and the order of the terms are pinned byte for byte.
_GOLDEN_MEASURES = [
    (["s"], "s >= 0 \\/ -s - 3 >= 0", "l1 >= 0 /\\ -l1 + s - 1 >= 0 /\\ 3 | l1 - 1",
     "sum[ 3 | s + 1 /\\ s - 2 >= 0 ; 4/7 ; p^(0) ]\n"
     "sum[ 3 | s + 1 /\\ s - 2 >= 0 ; -2/7 ; p^(-s) ]\n"
     "sum[ 3 | s + 2 /\\ s - 4 >= 0 ; 4/7 ; p^(0) ]\n"
     "sum[ 3 | s + 2 /\\ s - 4 >= 0 ; -8/7 ; p^(-s) ]\n"
     "sum[ 3 | s /\\ s - 3 >= 0 ; 4/7 ; p^(0) ]\n"
     "sum[ 3 | s /\\ s - 3 >= 0 ; -4/7 ; p^(-s) ]\n"),
    (["s"], "s >= 0 \\/ -s - 3 >= 0", "l1 - s >= 0 /\\ 3 | l1",
     "sum[ 3 | s + 1 /\\ -s - 3 >= 0 ; 4/7 ; p^(-s) ]\n"
     "sum[ 3 | s + 1 /\\ s >= 0 ; 4/7 ; p^(-s) ]\n"
     "sum[ 3 | s + 2 /\\ -s - 3 >= 0 ; 2/7 ; p^(-s) ]\n"
     "sum[ 3 | s + 2 /\\ s >= 0 ; 2/7 ; p^(-s) ]\n"
     "sum[ 3 | s /\\ -s - 3 >= 0 ; 8/7 ; p^(-s) ]\n"
     "sum[ 3 | s /\\ s >= 0 ; 8/7 ; p^(-s) ]\n"),
    (["s", "t"], "2 | s \\/ s - 5 >= 0 /\\ t >= 0 /\\ -t + 1 >= 0",
     "l1 >= 0 /\\ -l1 + s + t >= 0 /\\ 2 | l1 + t",
     "sum[ 2 | t + 1 /\\ 2 | s + t + 1 /\\ s + t - 1 >= 0 /\\ 2 | s ; 2/3 ; p^(0) ]\n"
     "sum[ 2 | t + 1 /\\ 2 | s + t + 1 /\\ s + t - 1 >= 0 /\\ 2 | s ; -1/3 ; p^(-s - t) ]\n"
     "sum[ 2 | t + 1 /\\ 2 | s + t /\\ s + t - 2 >= 0 /\\ s - 5 >= 0 /\\ t >= 0 /\\ -t + 1 >= 0"
     " /\\ 2 | s + 1 ; 2/3 ; p^(0) ]\n"
     "sum[ 2 | t + 1 /\\ 2 | s + t /\\ s + t - 2 >= 0 /\\ s - 5 >= 0 /\\ t >= 0 /\\ -t + 1 >= 0"
     " /\\ 2 | s + 1 ; -2/3 ; p^(-s - t) ]\n"
     "sum[ 2 | t /\\ 2 | s + t + 1 /\\ s + t - 1 >= 0 /\\ s - 5 >= 0 /\\ t >= 0 /\\ -t + 1 >= 0"
     " /\\ 2 | s + 1 ; 4/3 ; p^(0) ]\n"
     "sum[ 2 | t /\\ 2 | s + t + 1 /\\ s + t - 1 >= 0 /\\ s - 5 >= 0 /\\ t >= 0 /\\ -t + 1 >= 0"
     " /\\ 2 | s + 1 ; -2/3 ; p^(-s - t) ]\n"
     "sum[ 2 | t /\\ 2 | s + t /\\ s + t >= 0 /\\ 2 | s ; 4/3 ; p^(0) ]\n"
     "sum[ 2 | t /\\ 2 | s + t /\\ s + t >= 0 /\\ 2 | s ; -1/3 ; p^(-s - t) ]\n"),
]

_GOLDEN_COUNTS = [
    ("0 <= l /\\ l < s /\\ 3 | l - 1", "s >= 0 \\/ s <= -3",
     "count[ s - 4 >= 0 /\\ 3 | s + 2 ; -1/3 + 1/3*s ]\n"
     "count[ s - 2 >= 0 /\\ 3 | s + 1 ; 1/3 + 1/3*s ]\n"
     "count[ s - 3 >= 0 /\\ 3 | s ; 1/3*s ]\n"
     "count[ s >= 0 /\\ 3 | s /\\ -s + 2 >= 0 ; 0 ]\n"
     "count[ s >= 0 /\\ 3 | s + 2 /\\ -s + 3 >= 0 ; 0 ]\n"
     "count[ -s - 3 >= 0 ; 0 ]\n"),
    ("0 <= l /\\ l <= s /\\ 2 | l + s", "2 | s \\/ s >= 5",
     "count[ 2 | s /\\ s >= 0 ; 1 + 1/2*s ]\n"
     "count[ 2 | s /\\ -s - 1 >= 0 ; 0 ]\n"
     "count[ s - 5 >= 0 /\\ 2 | s + 1 ; 1/2 + 1/2*s ]\n"),
]


@pytest.mark.parametrize("params, domain, lam, printed", _GOLDEN_MEASURES,
                         ids=["three_classes", "two_domain_pieces", "two_parameters"])
def test_measure_printout_is_pinned(tmp_path, params, domain, lam, printed):
    path = _one_coordinate_document(
        tmp_path, param_vars=params, param_domain=domain,
        generator={"lambda_formula": lam, "weight": {"r": 1, "c": "1", "b": [0]}})
    assert call(["measure", path, "-p", "2"]) == (0, printed, "")


@pytest.mark.parametrize("formula, domain, printed", _GOLDEN_COUNTS,
                         ids=["congruence", "parity"])
def test_count_printout_is_pinned(formula, domain, printed):
    argv = ["count", "--formula", formula, "--lambda-vars", "l", "--domain", domain, "-p", "2"]
    assert call(argv) == (0, printed, "")


def test_eq_names_the_document_with_the_error(tmp_path):
    good = write(tmp_path, "good.json", delta_presentation(CTX2, 1))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_bounded_document(coords=[{"center": "0", "level": 1}])))
    line = f"error: coordinate 0 of generator 0 of document {bad} has no field 'ac'\n"
    assert call(["eq", good, str(bad), "-p", "2"]) == (2, "", line)
    assert call(["eq", str(bad), good, "-p", "2"]) == (2, "", line)
