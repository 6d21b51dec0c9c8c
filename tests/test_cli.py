import hashlib
import pathlib

import pytest

from cbvcost import bench
from cbvcost.cli import main
from cbvcost.turing import EVEN_PALINDROME_SPEC, FLIP_SPEC


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


def test_machine_r_negative_corpus(capsys):
    assert main(["machine-r", "--corpus", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: corpus size")


def test_machine_r_corpus_reports_columns_by_name(capsys):
    assert main(["machine-r", "--corpus", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "terms: 3"
    assert out[1].startswith("max ops: ") and int(out[1].split()[-1]) > 0
    assert out[2].startswith("max per-iteration constant: ")


def test_machine_r_corpus_builder_failure(monkeypatch, capsys):
    def give_up(seed, count):
        raise RuntimeError("could not build corpus: 0/5")

    monkeypatch.setattr(bench, "suite_machine_r_bounds", give_up)
    assert main(["machine-r", "--corpus", "5"]) == 1
    assert "could not build corpus" in capsys.readouterr().err


def test_machine_r_corpus_rejects_an_input_term(capsys):
    assert main(["machine-r", r"(\x.x)(\y.y)", "--corpus", "2"]) == 1
    assert "--corpus takes no input term" in capsys.readouterr().err


def test_machine_r_corpus_rejects_fuel(capsys):
    assert main(["machine-r", "--corpus", "2", "--fuel", "4000"]) == 1
    assert "--corpus takes no --fuel" in capsys.readouterr().err


def test_machine_r_corpus_writes_the_suite_csv(tmp_path, capsys):
    out = tmp_path / "corpus.csv"
    assert main(["machine-r", "--corpus", "2", "--seed", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scale,term,size,iterations,ops,time,max_c_iter,c_global"
    assert len(lines) == 1 + 3
    assert f"suite CSV written to {out}" in capsys.readouterr().out


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
