"""Instance files, generator determinism, command exit codes, SVG."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tautpath.cli import (
    main,
    coord_str,
    parse_coord,
    read_instance,
    instance_json,
    generate_instance,
    ParseError,
)
from tautpath.geom import Pt, rat
from tautpath.homotopy import PathPoly, validate_path


D1_INSTANCE = {
    "name": "square-hole",
    "seed": 0,
    "domain": {
        "outer": [["-5", "-5"], ["5", "-5"], ["5", "5"], ["-5", "5"]],
        "holes": [[["-1", "-1"], ["-1", "1"], ["1", "1"], ["1", "-1"]]],
    },
    "path": [["-3", "0"], ["0", "3"], ["3", "0"]],
}


def write_d1(tmp_path, name="d1.json", path=None):
    obj = dict(D1_INSTANCE)
    if path is not None:
        obj["path"] = path
    fp = tmp_path / name
    fp.write_text(json.dumps(obj) + "\n")
    return str(fp)


# --- exact coordinate strings ---


def test_coord_str_examples():
    assert coord_str(rat(1) / 2) == "0.5"
    assert coord_str(rat(3)) == "3"
    assert coord_str(rat(5) / 4) == "1.25"
    assert coord_str(rat(-1) / 2) == "-0.5"
    assert coord_str(rat(1) / 3) == "1/3"
    assert coord_str(rat(7) / 20) == "0.35"
    assert coord_str(rat(0)) == "0"
    assert coord_str(rat(-22) / 7) == "-22/7"


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
@settings(max_examples=300, deadline=None)
def test_coord_str_roundtrip(num, den):
    q = rat(num) / den
    assert parse_coord(coord_str(q)) == q


def test_parse_coord_forms():
    assert parse_coord("0.5") == rat(1) / 2
    assert parse_coord("1/3") == rat(1) / 3
    assert parse_coord(7) == rat(7)
    assert parse_coord("-2.75") == rat(-11) / 4
    with pytest.raises(ParseError):
        parse_coord("1/0")
    with pytest.raises(ParseError):
        parse_coord("abc")


# --- generator ---


def test_gen_deterministic(tmp_path):
    f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["gen", "--seed", "5", "--out", f1]) == 0
    assert main(["gen", "--seed", "5", "--out", f2]) == 0
    assert open(f1, "rb").read() == open(f2, "rb").read()


def test_gen_simply_connected(tmp_path):
    f = str(tmp_path / "plain.json")
    assert main(["gen", "--seed", "3", "--holes", "0", "--out", f]) == 0
    inst = read_instance(f)
    assert inst["domain"].holes == []
    assert validate_path(inst["path"], inst["domain"]).ok


def test_instance_roundtrip_bytes(tmp_path):
    f = str(tmp_path / "inst.json")
    main(["gen", "--seed", "11", "--holes", "2", "--vertices", "12", "--out", f])
    text = open(f).read()
    assert instance_json(read_instance(f)) == text


def test_generated_instances_vary():
    a = generate_instance(1, holes=1, vertices=10)
    b = generate_instance(2, holes=1, vertices=10)
    assert a["domain"].outer != b["domain"].outer


# --- validate command ---


def test_validate_ok(tmp_path, capsys):
    fp = write_d1(tmp_path)
    assert main(["validate", fp]) == 0
    assert capsys.readouterr().out.strip().endswith("valid")


def test_validate_flags_bad_path(tmp_path, capsys):
    fp = write_d1(tmp_path, path=[["-3", "0"], ["3", "0"]])
    assert main(["validate", fp]) == 1
    assert "invalid" in capsys.readouterr().out


_SQUARE = '[["-5", "-5"], ["5", "-5"], ["5", "5"], ["-5", "5"]]'
MALFORMED = [
    '{"domain": {"outer": [["0", "0"]',
    '{"domain": {"outer": [[Infinity, 0], [1, 0], [0, 1]]}}',
    '{"domain": {"outer": %s}, "path": [[1, 1], 5]}' % _SQUARE,
    '{"domain": {"outer": %s}, "path": [[1, 1], [2]]}' % _SQUARE,
    '{"domain": {"outer": %s, "holes": 5}}' % _SQUARE,
]


def test_validate_parse_error(tmp_path, capsys):
    fp = tmp_path / "broken.json"
    for text in MALFORMED:
        fp.write_text(text)
        assert main(["validate", str(fp)]) == 1, text
        assert "error:" in capsys.readouterr().err, text


def test_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


# --- tighten command ---


def test_tighten_reports_and_artifacts(tmp_path, capsys):
    fp = write_d1(tmp_path)
    out_json = str(tmp_path / "rec.json")
    out_svg = str(tmp_path / "pic.svg")
    code = main(
        ["tighten", fp, "--certify-lines", "300", "--seed", "42",
         "--json", out_json, "--svg", out_svg]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "certificate   : ok" in out
    assert "output length : 6.472135955000" in out

    rec = json.loads(open(out_json).read())
    assert rec["vertices"] == [["-3", "0"], ["-1", "1"], ["1", "1"], ["3", "0"]]
    assert rec["certificate"]["violations"] == []
    assert rec["certificate"]["taut_vertices_ok"] is True
    assert 0.0 <= rec["len_value"] < 1.0
    assert rec["len_value"] + rec["len_error_bound"] < 1.0
    assert rec["wall_time"] > 0

    svg = open(out_svg).read()
    assert svg.startswith("<svg")
    assert 'class="domain"' in svg
    assert 'class="input"' in svg
    assert 'class="output"' in svg


def test_tighten_svg_deterministic(tmp_path):
    fp = write_d1(tmp_path)
    s1, s2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    main(["tighten", fp, "--svg", s1])
    main(["tighten", fp, "--svg", s2])
    assert open(s1, "rb").read() == open(s2, "rb").read()


def test_tighten_rejects_bad_path(tmp_path, capsys):
    fp = write_d1(tmp_path, path=[["-3", "0"], ["3", "0"]])
    assert main(["tighten", fp]) == 1
    assert "error:" in capsys.readouterr().err


def test_tighten_requires_path(tmp_path, capsys):
    obj = dict(D1_INSTANCE)
    obj["path"] = None
    fp = tmp_path / "nopath.json"
    fp.write_text(json.dumps(obj))
    assert main(["tighten", str(fp)]) == 1


def test_no_stray_tmp_files(tmp_path):
    fp = write_d1(tmp_path)
    main(["tighten", fp, "--json", str(tmp_path / "r.json"), "--svg", str(tmp_path / "p.svg")])
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []


# --- homotopic command ---


def test_homotopic_same_file(tmp_path, capsys):
    fp = write_d1(tmp_path)
    assert main(["homotopic", fp, fp]) == 0
    assert "homotopic" in capsys.readouterr().out


def test_homotopic_distinguishes_classes(tmp_path, capsys):
    over = write_d1(tmp_path, "over.json")
    under = write_d1(tmp_path, "under.json", path=[["-3", "0"], ["0", "-3"], ["3", "0"]])
    assert main(["homotopic", over, under]) == 0
    assert "not homotopic" in capsys.readouterr().out


def test_homotopic_after_seed_fallback(tmp_path, capsys):
    # under seeds 0 and 1 the start has a vertex on an interior edge
    start = write_d1(tmp_path, "start.json", path=[["-4", "-3"], ["0", "-3"], ["3", "2"]])
    taut = write_d1(tmp_path, "taut.json", path=[["-4", "-3"], ["1", "-1"], ["3", "2"]])
    assert main(["homotopic", start, taut]) == 0
    assert capsys.readouterr().out.strip() == "homotopic"


def test_homotopic_rejects_path_through_hole(tmp_path, capsys):
    over = write_d1(tmp_path, "over.json")
    through = write_d1(tmp_path, "through.json", path=[["-3", "0"], ["3", "0"]])
    assert main(["homotopic", over, through]) == 1
    assert "error: path:" in capsys.readouterr().err


def test_homotopic_rejects_invalid_domain(tmp_path, capsys):
    obj = dict(D1_INSTANCE)
    obj["domain"] = {"outer": [["0", "0"], ["4", "4"], ["4", "0"], ["0", "4"]], "holes": []}
    obj["path"] = [["1", "1"], ["2", "1"]]
    fp = tmp_path / "bowtie.json"
    fp.write_text(json.dumps(obj))
    assert main(["homotopic", str(fp), str(fp)]) == 1
    assert "error: domain:" in capsys.readouterr().err


def test_homotopic_needs_matching_domains(tmp_path, capsys):
    a = write_d1(tmp_path, "a.json")
    obj = dict(D1_INSTANCE)
    obj["domain"] = {"outer": [["-6", "-6"], ["6", "-6"], ["6", "6"], ["-6", "6"]],
                     "holes": []}
    b = tmp_path / "b.json"
    b.write_text(json.dumps(obj))
    assert main(["homotopic", a, str(b)]) == 1
    assert "different domains" in capsys.readouterr().out


# --- len command ---


def test_len_command(tmp_path, capsys):
    fp = write_d1(tmp_path)
    assert main(["len", fp, "--kmax", "20", "--refine", "6"]) == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split(":")[1])
    err = float(out.splitlines()[1].split(":")[1])
    assert abs(value - 0.6754373050700501) < 1e-9
    assert value + err < 1.0


# --- installed entry point ---


def test_console_script_smoke(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "tautpath.cli", "gen", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert "domain" in obj and "path" in obj
