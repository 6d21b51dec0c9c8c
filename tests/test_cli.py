import contextlib
import hashlib
import io
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DECLARATION_FAULTS, terms
from reference import zipper_leftmost

from cbvcost import bench
from cbvcost.cli import PRINT_LIMIT, main
from cbvcost.encodings import Alphabet, church_numeral, encode_string
from cbvcost.machine_r import TAPE_LIMIT
from cbvcost.terms import App, parse_term, print_term
from cbvcost.theta import encode_theta, theta_to_ascii
from cbvcost.turing import EVEN_PALINDROME_SPEC, FLIP_SPEC, build_function, parse_tm


@pytest.fixture
def flip_path(tmp_path):
    path = tmp_path / "flip.tm"
    path.write_text(FLIP_SPEC)
    return str(path)


def test_normalize_success(capsys):
    assert main(["normalize", r"(\x.x)(\y.y)"]) == 0
    out = capsys.readouterr().out
    assert "normal form: \\x0.x0" in out
    assert "steps: 1" in out
    assert "time: 6" in out


def test_normalize_parse_error(capsys):
    assert main(["normalize", r"(\x."]) == 1
    assert "offset 4" in capsys.readouterr().err


def test_normalize_fuel_exhausted(capsys):
    assert main(["normalize", r"(\x.x x)(\x.x x)", "--fuel", "100"]) == 2
    assert "no normal form" in capsys.readouterr().out


def test_normalize_trace_deterministic(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    blobs = []
    for _ in range(2):
        assert main(["normalize", r"(\x.x x)(\y.y)", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0].startswith(b"step,cost,size_after,position")


def test_run_tm(flip_path, capsys):
    assert main(["run-tm", flip_path, "011"]) == 0
    out = capsys.readouterr().out
    assert "output: 100_" in out and "steps: 4" in out


def test_run_tm_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text("alphabet 0 1\n")
    assert main(["run-tm", str(path), "0"]) == 1
    assert "line 1" in capsys.readouterr().err


NO_STATES_SPEC = """\
alphabet: 0 1 _
blank: _
initial: q0
final: qf
"""


@pytest.mark.parametrize("spec, message", [
    pytest.param("alphabet 0 1\n", "line 1: expected 'key: value'", id="no-colon"),
    pytest.param(NO_STATES_SPEC, "missing states declaration", id="no-states"),
    pytest.param(FLIP_SPEC.replace("delta: q0 1 -> q0 0 R\n", ""),
                 "missing transition for ('q0', '1')", id="no-transition"),
    *[pytest.param(spec, f"line {line}: {message}", id=fault)
      for fault, (spec, line, message) in DECLARATION_FAULTS.items()],
])
@pytest.mark.parametrize("command", ["run-tm", "compile-tm"])
def test_machine_file_faults_name_the_file(command, spec, message, tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text(spec)
    assert main([command, str(path), "0"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_compile_tm(flip_path, capsys):
    assert main(["compile-tm", flip_path, "011"]) == 0
    out = capsys.readouterr().out
    assert "output: 100" in out and "machine steps: 4" in out


def test_compile_tm_palindrome(tmp_path, capsys):
    path = tmp_path / "pal.tm"
    path.write_text(EVEN_PALINDROME_SPEC)
    assert main(["compile-tm", str(path), "0110"]) == 0
    assert "output: 1" in capsys.readouterr().out


def test_machine_r_theta_input(capsys):
    assert main(["machine-r", "@L*0L*0"]) == 0
    out = capsys.readouterr().out
    assert "output: L*0" in out and "iterations: 1" in out


def test_machine_r_term_input_cross_checks(capsys, tmp_path):
    log = tmp_path / "iters.csv"
    assert main(["machine-r", r"(\x.\y.x y y)(\z.z)(\w.w)", "--out", str(log)]) == 0
    out = capsys.readouterr().out
    assert "engine cross-check: ok" in out
    lines = log.read_text().splitlines()
    assert lines[0] == "iteration,tl_before,tl_after,ops"
    assert len(lines) == 5


def test_machine_r_warns_on_many_free_names(capsys):
    assert main(["machine-r", "a b"]) == 0
    assert "warning" in capsys.readouterr().err


def test_machine_r_value_input(capsys):
    assert main(["machine-r", "L*0"]) == 0
    assert "iterations: 0" in capsys.readouterr().out


def test_encode_church(capsys):
    assert main(["encode", "--church", "2"]) == 0
    assert capsys.readouterr().out.strip() == r"\x0.\x1.x0 (x0 x1)"


def test_encode_scott(capsys):
    assert main(["encode", "--scott", "ab", "--alphabet", "a,b"]) == 0
    assert capsys.readouterr().out.strip().startswith("\\x0.")


def test_encode_theta(capsys):
    assert main(["encode", "--theta", r"(\x.x y)(\x.\y.\z.x)"]) == 0
    assert capsys.readouterr().out.strip() == "@L@*0*LLL*10"


def test_encode_scott_bad_symbol(capsys):
    assert main(["encode", "--scott", "abc", "--alphabet", "a,b"]) == 1


def test_bench_pca_costs(tmp_path, capsys):
    out = tmp_path / "pca.csv"
    assert main(["bench", "PcaCosts", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "combinator,case,cost"
    assert "swap" in text


def test_bench_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", "PcaCosts", "--out", str(a)]) == 0
    assert main(["bench", "PcaCosts", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_cost_growth(tmp_path, capsys):
    out = tmp_path / "growth.csv"
    assert main(["bench", "CostGrowth", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,steps,total_cost,time,ratio"
    assert len(lines) == 11


@pytest.mark.parametrize("argv", [
    ["normalize", r"(\x.x)(\y.y)"],
    ["run-tm", "{flip}", "011"],
    ["compile-tm", "{flip}", "011"],
    ["machine-r", "@L*0L*0"],
])
@pytest.mark.parametrize("fuel", ["0", "-3"])
def test_non_positive_fuel_is_malformed_input(argv, fuel, flip_path, capsys):
    argv = [a.format(flip=flip_path) for a in argv]
    assert main(argv + ["--fuel", fuel]) == 1
    assert capsys.readouterr().err.startswith("error: fuel must be positive")


def test_machine_r_corpus_builder_failure(monkeypatch, capsys):
    # the RuntimeError of the MachineRBounds corpus builder is malformed input
    def give_up(seed, count, max_size, min_size=2):
        raise RuntimeError(f"could not build corpus: 0/{count}")

    monkeypatch.setattr(bench, "make_normalizing_corpus", give_up)
    assert main(["bench", "MachineRBounds"]) == 1
    assert "error: could not build corpus: 0/120" in capsys.readouterr().err


def test_machine_r_corpus_writes_the_suite_csv(tmp_path, capsys):
    # sha256 of the CSV that the former `machine-r --corpus 120 --seed 0
    # --out PATH` wrote: the MachineRBounds suite is reached through `bench`
    out = tmp_path / "corpus.csv"
    assert main(["bench", "MachineRBounds", "--seed", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scale,term,size,iterations,ops,time,max_c_iter,c_global"
    assert len(lines) == 1 + 120 + 60
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c1d26b73784574b6aad146abf0f141b72a380ac5dce13e7902b18977f2ec56b1")
    assert f"180 rows written to {out}" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["1", "2"])
def test_machine_r_corpus_without_base_iterations_exits_zero(seed, monkeypatch, tmp_path, capsys):
    # a two-term MachineRBounds corpus at seeds 1 and 2 has no base-scale
    # iteration: `bench` skips that bound instead of reporting a violation
    monkeypatch.setitem(bench.SUITES, "MachineRBounds",
                        lambda s: bench.suite_machine_r_bounds(s, 2))
    out = tmp_path / "corpus.csv"
    assert main(["bench", "MachineRBounds", "--seed", seed, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text", [
    pytest.param("(" * 5000 + "x" + ")" * 5000, id="parentheses"),
    pytest.param("(\\x. " * 5000 + "x" + ")" * 5000, id="abstractions"),
])
def test_normalize_deeply_nested_input(text, capsys):
    assert main(["normalize", text]) == 0
    assert "steps: 0" in capsys.readouterr().out


@pytest.mark.parametrize("unread", [
    ["run-tm", "{flip}", "011", "--seed", "1"],
    ["run-tm", "{flip}", "011", "--out", "x.csv"],
    ["compile-tm", "{flip}", "011", "--seed", "1"],
    ["compile-tm", "{flip}", "011", "--out", "x.csv"],
    ["bench", "PcaCosts", "--fuel", "10"],
    ["machine-r", "--corpus", "2"],
    ["machine-r", "@L*0L*0", "--seed", "1"],
    ["encode", "--church", "3", "--alphabet", "q"],
    ["encode", "--theta", r"\x.x", "--alphabet", "a,b"],
])
def test_options_nothing_reads_are_rejected(unread, flip_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([a.format(flip=flip_path) for a in unread])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["normalize", r"(\x.x)(\y.y)", "--bogus"], id="unknown-option"),
    pytest.param(["bench", "NoSuchSuite"], id="invalid-suite"),
    pytest.param(["normalize", r"(\x.x)(\y.y)", "--fuel", "ten"], id="non-integer-fuel"),
])
def test_usage_errors_exit_with_bad_input(argv, capsys):
    # exit 2 means fuel exhausted, so a typo must not look like divergence
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--help"])
    assert exc.value.code == 0


def test_normalize_in_exactly_fuel_steps(capsys):
    assert main(["normalize", r"(\x.x)(\y.y)", "--fuel", "1"]) == 0
    assert "normal form: \\x0.x0" in capsys.readouterr().out


def test_machine_r_in_exactly_fuel_iterations(capsys):
    # the engine cross-check runs at the same fuel: one step, one iteration
    assert main(["machine-r", r"(\x.x)(\y.y)", "--fuel", "1"]) == 0
    out = capsys.readouterr().out
    assert "output: L*0" in out
    assert "engine cross-check: ok" in out


@pytest.mark.parametrize("command, counters", [
    pytest.param("normalize", ["no normal form within 5 steps", "steps: 5", "cost: 5"],
                 id="normalize"),
    # five iterations of 135 operations, and the find pass that sees a redex
    pytest.param("machine-r", ["no normal form within 5 iterations", "iterations: 5",
                               "tape operations: 716"], id="machine-r"),
])
def test_out_of_fuel_run_reports_its_counters_and_writes_out(command, counters, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main([command, r"(\x.x x)(\x.x x)", "--fuel", "5", "--out", str(out)]) == 2
    printed = capsys.readouterr().out.splitlines()
    assert all(line in printed for line in counters), printed
    assert "engine cross-check: ok" not in printed
    assert len(out.read_text().splitlines()) == 1 + 5


def test_run_tm_out_of_fuel_reports_its_steps(tmp_path, capsys):
    path = tmp_path / "loop.tm"
    path.write_text(FLIP_SPEC.replace("q0 _ -> qf _ S", "q0 _ -> q0 _ S"))
    assert main(["run-tm", str(path), "011", "--fuel", "10"]) == 2
    assert capsys.readouterr().out == "machine did not halt within 10 steps\nsteps: 10\n"


def test_compile_tm_out_of_fuel_names_its_steps_and_weight(tmp_path, capsys):
    loop = FLIP_SPEC.replace("q0 _ -> qf _ S", "q0 _ -> q0 _ S")
    path = tmp_path / "loop.tm"
    path.write_text(loop)
    assert main(["compile-tm", str(path), "011", "--fuel", "2000"]) == 2
    io_alphabet = Alphabet("01")
    term = App(build_function(parse_tm(loop), io_alphabet), encode_string(io_alphabet, "011"))
    weight = zipper_leftmost(term, 2000).trace.total_cost
    assert capsys.readouterr().err == (
        f"error: compiled machine did not halt within 2000 β-steps (weight {weight})\n")


def test_normalize_prints_the_size_of_a_huge_normal_form(capsys):
    # D = \x.\k.k x x doubles its argument: at depth 60 the normal form has
    # 6 * 2^60 - 4 nodes (shared in memory, not in print)
    term = r"\z.z"
    for _ in range(60):
        term = rf"(\x.\k.k x x) ({term})"
    assert main(["normalize", term]) == 0
    out = capsys.readouterr().out
    assert len(out) < 1024
    assert f"normal form: {6 * 2 ** 60 - 4} nodes, not printed" in out
    assert "steps: 60" in out
    # step i replaces a redex of size 8 + |V_i| by V_(i+1), |V_i| = 6 * 2^i - 4
    weight = 1 + sum(6 * 2 ** i - 8 for i in range(1, 60))
    assert f"time: {weight + 8 * 60 + 2}" in out


# sha256 of the CSV `cbvcost bench SUITE --seed 42` writes; the bench CSVs
# must stay byte-identical across refactors
BENCH_CSV_SHA256 = {
    "CostGrowth": "4735208e9ff0405fecbad849e92838c03cb508eb6a053744e3511a758f443f2e",
    "AppendCosts": "b2d4316870211fbb1fb4763df399d3cc4df609d39503907a0b9d9b4fb98c612c",
    "TmOverhead": "28be73b5364637b18aab5daaf529ad75ee1de79bb022fe1636b131fe25ad093b",
    "MachineRBounds": "1f08cf9e1b99b8ed6feb596b9539684ba7bd55273968e56dbad40e1cb95caa83",
    "PcaCosts": "dc006c484f278f3bf66cb6526c71a2b4b2fe24f47a0ad869dd3cef5c4ca4ab76",
}


@pytest.mark.parametrize("suite", sorted(BENCH_CSV_SHA256))
def test_bench_csv_golden_digest(suite, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["bench", suite, "--seed", "42", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_CSV_SHA256[suite]


BLANK_ONLY_SPEC = """\
alphabet: _
blank: _
states: q0 qf
initial: q0
final: qf
delta: q0 _ -> qf _ S
"""


@pytest.fixture
def blank_only_path(tmp_path):
    path = tmp_path / "blank.tm"
    path.write_text(BLANK_ONLY_SPEC)
    return str(path)


@pytest.fixture
def not_utf8_path(tmp_path):
    path = tmp_path / "latin.tm"
    path.write_bytes(b"\xff\xfe")
    return str(path)


@pytest.mark.parametrize("argv", [
    pytest.param(["compile-tm", "{blank}", ""], id="compile-tm-empty-io-alphabet"),
    pytest.param(["run-tm", "{latin}", "0"], id="run-tm-not-utf8"),
    pytest.param(["compile-tm", "{latin}", "0"], id="compile-tm-not-utf8"),
    pytest.param(["normalize", r"(\x.x)(\y.y)", "--out", "{missing}"], id="normalize-out"),
    pytest.param(["machine-r", "@L*0L*0", "--out", "{missing}"], id="machine-r-out"),
    pytest.param(["bench", "PcaCosts", "--out", "{missing}"], id="bench-out"),
])
def test_unreadable_or_unwritable_files_are_malformed_input(
        argv, blank_only_path, not_utf8_path, tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    argv = [a.format(blank=blank_only_path, latin=not_utf8_path, missing=missing)
            for a in argv]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not missing.parent.exists()


def test_encode_huge_church_numeral_prints_its_size(capsys):
    # 2 * 10^9 + 3 nodes: printed as a size without building the term
    assert main(["encode", "--church", str(10 ** 9)]) == 0
    out = capsys.readouterr().out
    assert len(out) < 1024
    assert out == f"{2 * 10 ** 9 + 3} nodes, not printed (more than {PRINT_LIMIT})\n"


def test_encode_church_numeral_at_the_print_limit(capsys):
    # the CLI sizes a numeral in closed form before it builds one
    for k in (0, 1, 17):
        assert church_numeral(k).size == 2 * k + 3
    n = (PRINT_LIMIT - 3) // 2
    assert church_numeral(n).size <= PRINT_LIMIT < church_numeral(n + 1).size
    assert main(["encode", "--church", str(n)]) == 0
    assert capsys.readouterr().out.count("x0") == n + 1  # the binder and n uses
    assert main(["encode", "--church", str(n + 1)]) == 0
    assert "nodes, not printed" in capsys.readouterr().out


def test_encode_theta_is_capped_like_every_printed_term(capsys):
    # n binders over their own variable are n + 2 symbols: L^n * 0
    def binders(n):
        return "\\x." * n + "x"

    assert main(["encode", "--theta", binders(30_001)]) == 0
    out = capsys.readouterr().out
    assert len(out) < 1024
    assert out == f"30003 symbols, not printed (more than {PRINT_LIMIT})\n"
    n = PRINT_LIMIT - 2
    assert main(["encode", "--theta", binders(n)]) == 0
    out = capsys.readouterr().out
    assert out == theta_to_ascii(encode_theta(parse_term(binders(n)))) + "\n"
    assert out == "L" * n + "*0\n"
    assert main(["encode", "--theta", binders(n + 1)]) == 0
    assert capsys.readouterr().out == f"{PRINT_LIMIT + 1} symbols, not printed (more than {PRINT_LIMIT})\n"


def test_machine_r_prints_the_size_of_a_huge_output(capsys):
    # D = \x.\k.k x x nested 13 deep: 212 input characters whose normal form
    # is 65,531 symbols long in string notation
    term = r"\z.z"
    for _ in range(13):
        term = rf"(\x.\k.k x x) ({term})"
    assert main(["machine-r", term]) == 0
    out = capsys.readouterr().out
    assert len(out) < 1024
    lines = out.splitlines()
    assert lines[0].startswith("output: ") and lines[0].endswith(
        f"symbols, not printed (more than {PRINT_LIMIT})")
    # both recorded before the output was capped
    assert "iterations: 13" in lines
    assert "tape operations: 1383672" in lines
    assert "engine cross-check: ok" in lines


def test_machine_r_stops_at_the_tape_limit_like_out_of_fuel(tmp_path, capsys):
    # D nested 16 deep: 260 input characters whose normal form would be
    # 524,283 symbols long; the 15th iteration would write 262,150
    term = r"\z.z"
    for _ in range(16):
        term = rf"(\x.\k.k x x) ({term})"
    assert len(term) == 260
    out = tmp_path / "iters.csv"
    assert main(["machine-r", term, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[:2] == [f"no normal form within the tape limit of {TAPE_LIMIT} symbols",
                         "iterations: 14"]
    assert lines[2].startswith("tape operations: ")
    assert "engine cross-check: ok" not in lines
    assert len(out.read_text().splitlines()) == 1 + 14


# --- fuzzing main ------------------------------------------------------------

@pytest.fixture(scope="module")
def machine_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("machines")
    paths = {"missing": str(root / "missing.tm")}
    for name, spec in [("flip", FLIP_SPEC), ("palindrome", EVEN_PALINDROME_SPEC),
                       ("blank", BLANK_ONLY_SPEC)]:
        (root / f"{name}.tm").write_text(spec)
        paths[name] = str(root / f"{name}.tm")
    (root / "latin.tm").write_bytes(b"\xff\xfe")
    paths["latin"] = str(root / "latin.tm")
    paths["out"] = str(root / "out.csv")
    paths["missing_dir"] = str(root / "missing" / "out.csv")
    return paths


_term_texts = st.one_of(
    st.text(alphabet="\\λ.() xyz", max_size=30),
    terms(max_size=10).map(lambda t: print_term(t)[:30]),
    st.just(r"(\x.x x)(\x.x x)"),  # runs out of any fuel
)
_theta_texts = st.one_of(
    st.text(alphabet="L@*01λ▶", max_size=30),
    terms(max_size=10).map(lambda t: theta_to_ascii(encode_theta(t))[:30]),
)


@st.composite
def _argv(draw, paths):
    def option(name, values):
        return [name, str(draw(values))] if draw(st.booleans()) else []

    fuel = ["--fuel", str(draw(st.integers(-2, 100)))]
    seed = option("--seed", st.integers(-5, 10 ** 6))
    out = option("--out", st.sampled_from([paths["out"], paths["missing_dir"]]))
    command = draw(st.sampled_from(["normalize", "run-tm", "compile-tm", "machine-r", "encode"]))
    if command == "normalize":
        argv = [draw(_term_texts)] + fuel + seed + out + option(
            "--strategy", st.sampled_from(["leftmost", "rightmost", "random"]))
    elif command in ("run-tm", "compile-tm"):
        machine = paths[draw(st.sampled_from(["flip", "palindrome", "blank", "latin", "missing"]))]
        argv = [machine, draw(st.text(alphabet="01_a", max_size=8))] + fuel
    elif command == "machine-r":
        argv = [draw(st.one_of(_term_texts, _theta_texts))] + fuel + out
    else:
        kind = draw(st.sampled_from(["--church", "--scott", "--theta"]))
        value = draw({"--church": st.integers(-10, 10 ** 12).map(str),
                      "--scott": st.text(alphabet="ab01", max_size=10),
                      "--theta": _term_texts}[kind])
        argv = [kind, value]
        if kind == "--scott":
            argv += option("--alphabet", st.text(alphabet="ab,_", max_size=6))
    # now and then an option the subcommand does not take: a usage error
    argv += draw(st.sampled_from([[]] * 9 + [["--church", "1"], ["--corpus", "1"], ["--bogus"]]))
    return [command] + argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_main_is_total(machine_paths, data):
    argv = data.draw(_argv(machine_paths))
    out = pathlib.Path(machine_paths["out"])
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2, 3), (argv, stderr.getvalue())
    assert len(stdout.getvalue().encode()) < 256 * 1024, argv
    # a run that finished or ran out of fuel writes the --out it names
    if argv[0] in ("normalize", "machine-r") and str(out) in argv and code in (0, 2):
        assert out.exists(), argv


@pytest.mark.parametrize("command", ["run-tm", "compile-tm"])
def test_machine_file_that_is_not_utf8_is_named(command, not_utf8_path, capsys):
    assert main([command, not_utf8_path, "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {not_utf8_path}: ")
    assert "can't decode" in err
