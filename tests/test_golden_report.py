"""`quditproc run --config paper-claims --seed 2024`, the same run of
tests/data/strided-sizes.json, and five `quditproc describe` calls against
committed outputs.

tests/data holds those runs' reports and the describe documents. In the
paper-claims reports and the describe documents, strings, ints, bools and
nulls must match exactly; floats may differ by 1e-12, so that another LAPACK
build or a change that moves a last ulp still passes. The strided-sizes report
(N = 9, 27, 28 and 32, which run the deferred network output) must
match byte for byte: post-selecting only the columns a measurement reads must
not move a bit against the whole output. It was regenerated when the full
measurement became the closed form |0> ⊗ |+> in place of the FFT of N^2 equal
weights, which moved 8 floats by at most 4.4e-16 and nothing else, and again
when a deferred output came to be post-selected as K ψ by the program's
success map, which moved 14 floats by at most 4.4e-16. It was generated
with numpy 2.4.6; another FFT or LAPACK build may move a last ulp, and then
needs a report of its own.
A change that means to alter an output replaces these files and says why.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from quditproc.cli import main

from conftest import strict_json

DATA = Path(__file__).resolve().parent / "data"
FLOAT_TOL = 1e-12


def _assert_matches(new, ref, where="report"):
    assert type(new) is type(ref), f"{where}: {new!r} vs {ref!r}"
    if isinstance(ref, dict):
        assert list(new) == list(ref), where
        for key in ref:
            _assert_matches(new[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert len(new) == len(ref), where
        for i, (a, b) in enumerate(zip(new, ref)):
            _assert_matches(a, b, f"{where}[{i}]")
    elif isinstance(ref, float):
        assert abs(new - ref) <= FLOAT_TOL, f"{where}: {new!r} vs {ref!r}"
    else:
        assert new == ref, where


def _run(tmp_path, fmt) -> str:
    out = tmp_path / f"report.{fmt}"
    argv = ["run", "--config", "paper-claims", "--seed", "2024", "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    return out.read_text(encoding="utf-8")


def test_json_report_matches_golden(tmp_path):
    ref = json.loads((DATA / "paper-claims-seed2024.json").read_text(encoding="utf-8"))
    _assert_matches(json.loads(_run(tmp_path, "json")), ref)


def test_csv_report_matches_golden(tmp_path):
    # The CSV is text; its float columns are those the JSON report types as floats.
    ref_rows = json.loads((DATA / "paper-claims-seed2024.json").read_text(encoding="utf-8"))["rows"]
    float_cols = {k for row in ref_rows for k, v in row.items() if isinstance(v, float)}
    ref = list(csv.reader(io.StringIO((DATA / "paper-claims-seed2024.csv").read_text(encoding="utf-8"))))
    new = list(csv.reader(io.StringIO(_run(tmp_path, "csv"))))
    assert new[0] == ref[0]
    assert len(new) == len(ref)
    for line, (new_row, ref_row) in enumerate(zip(new[1:], ref[1:]), start=2):
        assert len(new_row) == len(ref_row), f"line {line}"
        for col, a, b in zip(ref[0], new_row, ref_row):
            if col in float_cols and a and b:
                assert abs(float(a) - float(b)) <= FLOAT_TOL, f"line {line}, {col}: {a} vs {b}"
            else:
                assert a == b, f"line {line}, {col}: {a} vs {b}"


def test_strided_sizes_report_matches_golden_byte_for_byte(tmp_path):
    out = tmp_path / "report.json"
    argv = ["run", "--config", str(DATA / "strided-sizes.json"), "--seed", "2024", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (DATA / "strided-sizes-seed2024.json").read_bytes()


DESCRIBE_CASES = {
    "describe-identity-dim3.json": ["identity", "--dim", "3"],
    "describe-example2-dim6.json": ["example2", "--dim", "6", "--param", "theta=0.3"],
    "describe-reflection-dim2.json": ["reflection", "--dim", "2", "--param", "phi=[[0.6,0],[0.8,0]]"],
    "describe-family-l3.json": ["family", "--param", "l=3", "--param", "phi=0.43"],
    "describe-inline-2x2.json": ["inline", "--param", "matrix=[[[0.5,0.25],[1,0]],[[0,-0.75],[0.125,2]]]"],
}


@pytest.mark.parametrize("name", list(DESCRIBE_CASES))
def test_describe_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(["describe", *DESCRIBE_CASES[name], "--out", str(out)]) == 0
    ref = json.loads((DATA / name).read_text(encoding="utf-8"))
    _assert_matches(strict_json(out.read_text(encoding="utf-8")), ref, name)
