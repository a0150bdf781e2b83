"""Instance files, generator determinism, command exit codes, SVG."""

import hashlib
import json
import math
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
    for v in (True, False):
        with pytest.raises(ParseError, match="bad coordinate"):
            parse_coord(v)
    # the bound past which reported lengths could overflow is inclusive
    assert parse_coord(str(2**1022)) == 2**1022
    assert parse_coord(-(2**1022)) == -(2**1022)
    for v in (str(2**1022 + 1), -float(2**1023), "1e400"):
        with pytest.raises(ParseError, match="bad coordinate"):
            parse_coord(v)


def test_validate_rejects_boolean_coordinates(tmp_path, capsys):
    # JSON false/true are not the numbers 0/1
    fp = write_d1(tmp_path)
    obj = json.loads(open(fp).read())
    obj["domain"] = {"outer": [[False, False], [True, False], [True, True], [False, True]], "holes": []}
    obj["path"] = [["0.25", "0.25"], ["0.75", "0.75"]]
    open(fp, "w").write(json.dumps(obj))
    assert main(["validate", fp]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error:") and "bad coordinate" in out.err
    assert out.out == ""


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
    rep = validate_path(inst["path"], inst["domain"])
    assert rep.ok and not rep.touches


# sha256 of `tautpath gen --seed s` for s = 0..9, with the default options
# and with --holes 3 --vertices 12: the generator's output must not change
# when the code it calls does
GEN_SHA256 = {
    (): [
        "3202c8f1a42ff5c129f28216c02c7426220b3fb961e94665c6287d4a54ffcc4c",
        "136e9baae367bfb987570d3634a2b13653fbf104a910881cd211e587da7c5962",
        "9f4cb16b7d18ac1c80637f547923e17bb3f0a7071b104cc2cb1ac79090872fbe",
        "bc25fdccd3cf018b1c9b0849f01d96acedf6a434ce47150fffd73efb47b2290e",
        "ce8d72bb67ed4f4e1e4cc162a489c21d71a5ee90efb436cad66670e9a495b1da",
        "46766654b3ba20be894b958747b82e303da33b91da4bb2d7a984bed30abb0898",
        "27611419216e747550cf64129ee65405ff5e5b6d43ac310f30e4254fe7b09a0a",
        "c7c64f2dfd58dde3498b64ec17c4a365d5f5488d570b8fd59061ac98bee4b45d",
        "6ed66f0f619b773694f351511b47758685328203fc24552a3762620485a9a2c7",
        "e64e6c98125a600bc8e633f34041ca84da2582bcd97f7643b7d4d59e53c39ba6",
    ],
    ("--holes", "3", "--vertices", "12"): [
        "ea1e180b5d7424598a8575976ea8044beb04df2a139eb74124540e644411ceeb",
        "d3de20cc4d3781acccc93f5ac5cb69d7f6b2f452927eda3a2f90582e7ece74b2",
        "231bba25d66d365c65e3b0778681ef7b054203a618bad06ed11d41e3edd8af57",
        "782c80aaf8d08e6eae8a61feca3377be57fcd7c3d387d7bd3e8558d20db39dd3",
        "bd111f02d8ff296f1c9f7b6f611d27315b4b80881cddca9a75c157bc9ebfe852",
        "3004dce8a8d63ae3d1b582925d98e94661c9185834756ba97b9ec11bbb951d23",
        "a3b6b2471fa49f5083dabac75108bcbc5d575c15c14b7f71cc8ab021d20fb2fc",
        "8cefa30015c9490f02d22624664252effa577c61d6fd9f1b4c65ae5a792cdc80",
        "3b2e1d6c76f715e70f7ad99d580a787fa364e513f6284fdcf7c562e0d22177aa",
        "4773f57f8263d383f6ffac719a46a077fb2c7c67b73a55b2f35df627593cac33",
    ],
}


@pytest.mark.parametrize("opts", sorted(GEN_SHA256))
def test_gen_output_pinned(opts, capsys):
    for seed, want in enumerate(GEN_SHA256[opts]):
        assert main(["gen", "--seed", str(seed), *opts]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want, seed


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


def test_validate_names_vertex_outside_closed_domain(tmp_path, capsys):
    # (0, 0) lies inside the hole
    fp = write_d1(tmp_path, path=[["-3", "0"], ["0", "0"], ["3", "0"]])
    assert main(["validate", fp]) == 1
    assert capsys.readouterr().out.splitlines() == ["path: vertex 1 outside the closed domain", "invalid"]


def test_validate_accepts_boundary_contact(tmp_path, capsys):
    # the path runs along the hole's top edge from (-1, 1)
    fp = write_d1(tmp_path, path=[["-3", "1"], ["-1", "1"], ["1", "1"], ["3", "0"]])
    assert main(["validate", fp]) == 0
    assert capsys.readouterr().out.splitlines() == ["path: valid only up to boundary contact", "valid"]


def test_validate_invalid_domain_skips_the_path(tmp_path, capsys):
    # the hole [4, 6]^2 crosses the outer ring, so the path is not checked
    hole = [["4", "4"], ["4", "6"], ["6", "6"], ["6", "4"]]
    obj = dict(D1_INSTANCE, domain=dict(D1_INSTANCE["domain"], holes=[hole]))
    fp = tmp_path / "bad-domain.json"
    fp.write_text(json.dumps(obj) + "\n")
    assert main(["validate", str(fp)]) == 1
    out = capsys.readouterr()
    assert out.out.splitlines() == ["domain: hole 0 not strictly interior", "invalid"]
    assert out.err == ""


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
        ["tighten", fp, "--certify-lines", "300", "--json", out_json, "--svg", out_svg]
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


def test_tighten_taut_closure_path_is_left_alone(tmp_path, capsys):
    # the input already runs along the hole's top edge: it is read as it
    # is, so its own length is reported and no move is made
    fp = write_d1(tmp_path, path=[["-3", "0"], ["-1", "1"], ["1", "1"], ["3", "0"]])
    assert main(["tighten", fp, "--certify-lines", "100"]) == 0
    out = capsys.readouterr().out
    assert "input length  : 6.472135955000" in out
    assert "output length : 6.472135955000" in out
    assert "moves         : 0 (0 spur, 0 chord)" in out
    assert "certificate   : ok" in out


def test_tighten_past_the_float_range_of_squared_lengths(tmp_path, capsys):
    # squared lengths near 1e399 overflow a float; the lengths themselves
    # and the bounded length stay finite
    big = {
        "name": "huge",
        "seed": 0,
        "domain": {"outer": [["0", "0"], ["1e200", "0"], ["1e200", "1e200"], ["0", "1e200"]], "holes": []},
        "path": [["1e199", "1e199"], ["5e199", "2e199"], ["3e199", "3e199"]],
    }
    fp, out_json = tmp_path / "huge.json", str(tmp_path / "rec.json")
    fp.write_text(json.dumps(big))
    assert main(["tighten", str(fp), "--certify-lines", "50", "--json", out_json, "--svg", str(tmp_path / "pic.svg")]) == 0
    assert "certificate   : ok" in capsys.readouterr().out
    rec = json.loads(open(out_json).read())
    assert rec["vertices"] == [[str(10**199)] * 2, [str(3 * 10**199)] * 2]
    for key in ("input_length", "output_length", "len_value", "len_error_bound"):
        assert math.isfinite(rec[key]), key


def square_instance(tmp_path, name, lo, hi, path):
    obj = {
        "name": name,
        "seed": 0,
        "domain": {"outer": [[lo, lo], [hi, lo], [hi, hi], [lo, hi]], "holes": []},
        "path": path,
    }
    fp = tmp_path / f"{name}.json"
    fp.write_text(json.dumps(obj))
    return str(fp)


@pytest.mark.parametrize(
    "lo, hi, path",
    [
        # coordinates no float can hold
        ("0", "1e400", [["1e399", "1e399"], ["5e399", "2e399"], ["3e399", "3e399"]]),
        # each coordinate fits a float, but not their differences
        ("-1.5e308", "1.5e308", [["-1e308", "0"], ["1e308", "1"], ["1e308", "2"]]),
    ],
)
@pytest.mark.parametrize("cmd", ["validate", "tighten"])
def test_coordinates_past_the_reported_range_rejected(tmp_path, cmd, lo, hi, path):
    fp = square_instance(tmp_path, "huge", lo, hi, path)
    res = subprocess.run(
        [sys.executable, "-m", "tautpath.cli", cmd, fp], capture_output=True, text=True
    )
    assert res.returncode == 1
    assert res.stderr.startswith("error: bad coordinate")
    assert "Traceback" not in res.stderr


def test_tighten_reports_a_length_past_the_float_range(tmp_path, capsys):
    # every segment fits a float, but the zigzag's total does not: it is
    # reported as inf, and the taut path is a single segment
    zig = [[x, str(y)] for y in range(3) for x in ("-3e307", "3e307")]
    fp = square_instance(tmp_path, "zigzag", "-4e307", "4e307", zig)
    out_json = str(tmp_path / "rec.json")
    assert main(["tighten", fp, "--certify-lines", "20", "--json", out_json]) == 0
    out = capsys.readouterr().out
    assert "input length  : inf" in out
    assert "certificate   : ok" in out
    rec = json.loads(open(out_json).read())
    assert rec["input_length"] == math.inf
    assert rec["output_length"] == math.hypot(6e307, 2)
    assert rec["vertices"] == [["-3" + "0" * 307, "0"], ["3" + "0" * 307, "2"]]


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


@pytest.mark.parametrize(
    "argv, option",
    [
        (["len", "{fp}", "--kmax", "0"], "--kmax"),
        (["len", "{fp}", "--refine", "-1"], "--refine"),
        (["tighten", "{fp}", "--certify-lines", "-5"], "--certify-lines"),
        (["gen", "--vertices", "2"], "--vertices"),
        (["gen", "--holes", "-2"], "--holes"),
    ],
)
def test_out_of_range_options_rejected(tmp_path, capsys, argv, option):
    fp = write_d1(tmp_path)
    assert main([a.format(fp=fp) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {option} must be at least")


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
    # the end of the start path lies on an interior edge
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


# --- README ---


def test_readme_quickstart_prints_what_it_says(capsys):
    """README's library quickstart runs, and each print followed by a
    comment prints that comment (up to a three-space annotation)."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    expected = [
        nxt[2:].split("   ")[0] for line, nxt in zip(lines, lines[1:]) if line.startswith("print(") and nxt.startswith("# ")
    ]
    exec(compile(block, "README.md", "exec"), {})
    assert len(expected) == 2
    assert capsys.readouterr().out.splitlines()[:2] == expected
