"""The CLI's one output path: each cmd_* returns (exit code, payload, text
lines) and cli.run alone writes stdout.

The golden digests are the sha256 of (exit code, stdout, stderr) of each
command in both formats, so a change to the output path shows byte for
byte. Each digest was the same in 5 fresh processes.
"""

import ast
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionring import cli
from fusionring.core import group_ring, ring_to_json


def _bad_c3():
    data = ring_to_json(group_ring([3]))
    data["tensor"][1][1][2] = 2
    return data


# Z(Rep(S3)) with the twist of object 2 set to 1: 17 balancing violations
S_DOUBLE_S3 = [[1, 1, 2, 2, 2, 2, 3, 3], [1, 1, 2, 2, 2, 2, -3, -3],
               [2, 2, -2, 4, -2, -2, 0, 0], [2, 2, 4, -2, -2, -2, 0, 0],
               [2, 2, -2, -2, 4, -2, 0, 0], [2, 2, -2, -2, -2, 4, 0, 0],
               [3, -3, 0, 0, 0, 0, 3, -3], [3, -3, 0, 0, 0, 0, -3, 3]]
T_BROKEN = [[0, 1], [0, 1], [0, 1], [1, 3], [0, 1], [0, 1], [0, 1], [1, 2]]

# argv, stdin JSON or None, digest in --format text, digest in --format json
GOLDEN = [
    ("verify catalog:S3", None,
     "bae317a2821edfc8030db1d41d4ae0457ee6063e3b8f6369a2fe573716e8b85c",
     "6ba6b2ec81eabf48113405eb2e4dd99a4e6fc3f47576446fdcde1ddca98c6321"),
    ("fpdim catalog:A4", None,
     "5b5abf57173f3a1d9db40ce332ac30fd9146c5a1300894ac24765ffffec59c75",
     "b190f0c1f7d91ca4918fa6b3f185ba4be498bd2ec7e4eebaf56e8fd9fcd9ee13"),
    ("chars catalog:A4", None,
     "0492b77254e1fcf149848dfa29ea4011bc6d10883dc9b4e182912f1b63f9ba1c",
     "9ede11e24fa7974b4ad96e3138fb0f90d68aa3a5349cd5395cb3ed825911febb"),
    ("codegrees catalog:S3", None,
     "8b29e56c3246e6d31d0d3a42bbec444b339a3721caa29377b1322d8c0cef39a9",
     "c2eb1c8db44c14d90e75f092f7ffdc9eeed2cec3fd5f1a366d8fb3394fca0798"),
    ("detect catalog:PSU(3,2)", None,
     "c4b49bf55103e76a3d364f7955c34bcb4062f9858afdc16f91b9d95df4b11c1b",
     "d670c3e52ab69396adb8703e1b07548982be061a2bd3d7fb65df5b81e9ab8d7b"),
    ("construct --subring catalog:C2 --kappa 1", None,
     "13c69305a843a34acaebc7c1abcaf98e11c99353a9527b7c04ef7186880660e3",
     "61c21068ad11f12ff674fe0da4a729517bd94c114caf10875e7d8a57cc4a8491"),
    ("verlinde catalog:Z(Rep(S3))", None,
     "fa5681b4b17ea0be71f0ee77e4bf38bf943107a3dabf5ffe5047297d70dda23a",
     "7042777cabcebf94d7d252304b3800f201c7881472ba741e1720d89fe3073193"),
    ("balance catalog:Z(Rep(S3)) catalog:Z(Rep(S3))", None,
     "620d203600908050ade34a03cda128b89b5611e332c6c6e87230459dccacfedb",
     "6a2ec7e3a3e3dfe0175f4bf93769842746cc4a307ff34b48b23b7ace9ff37b35"),
    ("qforms C3xC3 --classes", None,
     "71a79e0865b4b1fe8969c58b6418170bed809478d31048dfe2a1c5fe3d52d87a",
     "0f8ff711621443276ca6857958ba73031fcfa4e2ba69b4c113d615a463443779"),
    ("gagola catalog:Aut(D9)", None,
     "068fa20635858c15139c1b1a400111562fa5a9677d7fed4e1901ab0b3942ee98",
     "a72a3ccd2a5753f9c5462e1d0343c8dbbd63646a5480a2383fa41d97a70fcb58"),
    ("cases --N 8", None,
     "20ca60d45ef1e0a47e7354a72759e5506619847832472b44209a4928fe2b077c",
     "b9fd188dad0ee16a87aafc7506e132d8e528ec425c863a053ca762b4b3af0cc2"),
    ("catalog list", None,
     "91b3817ff6fd21b72d3281a1caaf80d1c69af2890b65113adffd5f139cf179c7",
     "98ff18c1b2e0fb39699e31c433dcf0717bdec944088fdd322177106a83e177c0"),
    ("catalog verify", None,
     "e069408332f36c66b2a63d5aa95c0cc3c00e40c2a062e8403c39b526d3475eff",
     "30653e4dcc90617a2396d927b1ec2717c1a192bf6083e79c4dc5b845b3fca7b3"),
    ("catalog show S3", None,
     "ed1ead2ecf5d57df778f526b55754c51f2d3a5f48c412c15aec32a2bcfbbecd8",
     "589184a337152cfbcfb123aa442aa3120fe04771d79f3c7052474b26a9b24d90"),
    ("catalog show Z(Rep(S3))", None,
     "8a710a295463d1a2810bfad75e4c32c9c8527f28479dd975fac77e819cd8118d",
     "013a7ea02733225866ce5ddb7c9cd83a8d08d37b065cb6ea7a62ec5bc5fc3afe"),
    ("catalog show groups<=6classes", None,
     "2ae611bf4db53c0fb9c660a4654516c37d362dcc6bf99ab609d69e9a92abef12",
     "ff0dfbd4d2590845ac9739a46c415d58a3422aa78de2b62026b1724066de4d8e"),
    ("catalog show rank4/C(A1,8,q)_ad", None,
     "17d2c246e74aa632dbda5ba54065a42bacca0c497157c3e0126591c457e3c9b6",
     "4b2769a724cea734690dc736ea1f68a18ee43e84ab7b1d503831b893c782e9b8"),
    # negative findings, exit 1
    ("detect -", ring_to_json(group_ring([4])),
     "8c5de74b0d7ea8dc0bdd863281b467a8ce95b046ef53eab95a337d81f1f746b0",
     "37d2eff8c0604a6b472d863505b394f1e467bcfc608eb0624b3b3f98d5c2076c"),
    ("gagola -", {"order": 5, "rows": [[1, 1], [2, -0.5]], "classSizes": [1, 4]},
     "616ecd2429800ac06b45fb8c288119a13efb3fe059449d9f119630652783f5fc",
     "6daaa0e95883081653be45509595da6953d61e0e0e3130d5267dd19eb29b84eb"),
    ("gagola -", {"order": 3, "rows": [[1, 1, 1], [1, "zeta(3,1)", "zeta(3,2)"],
                                      [1, "zeta(3,2)", "zeta(3,1)"]]},
     "a7b48ca90460ca88faecb3a0484714156af05d05c74cf866656ae0353ce2eed2",
     "ee1e59cc8a59d4b44d465a222e56d181c3d74423d69b60461f6f1e67979c69ab"),
    ("verify -", _bad_c3(),
     "3c28e19ea6851a4a30fdddd3b39e54469d93e5e00a17a81ffbbefc3f02169040",
     "a67ed4ddd5b0452aaf406a043385acbb5e07bb778e9be33594bea487c75238ae"),
    ("balance catalog:Z(Rep(S3)) -", {"S": S_DOUBLE_S3, "T": T_BROKEN},
     "6ce144649bfe0ec4ab595f5ca0ddf41562a6a62245b7b7f34e9a3329bc507085",
     "dc5fbe9612b1bc3044368f61dab10ae4929beedfc38349c297a48158a9124515"),
]
CASES = [(fmt, argv, stdin, digest) for argv, stdin, text, js in GOLDEN
         for fmt, digest in (("text", text), ("json", js))]


@pytest.mark.parametrize("fmt, argv, stdin, digest", CASES,
                         ids=[f"{fmt}-{argv}" for fmt, argv, _, _ in CASES])
def test_golden_output(fmt, argv, stdin, digest, capsys, monkeypatch):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
    code = cli.run(["--format", fmt, *argv.split(" ")])
    out, err = capsys.readouterr()
    got = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    assert got == digest, (code, out[:200], err)


def stdout_writers(tree) -> list:
    """'name line N' for each print call or sys.stdout reference in tree
    outside the top-level function run; name is the top-level def or class
    holding it, 'module' outside them."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "run":
            continue
        name = getattr(node, "name", "module")
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id == "print"
                    or isinstance(sub, ast.Attribute) and sub.attr == "stdout"
                    and isinstance(sub.value, ast.Name) and sub.value.id == "sys"):
                out.append(f"{name} line {sub.lineno}")
    return out


def test_only_run_writes_stdout():
    assert stdout_writers(ast.parse(Path(cli.__file__).read_text())) == []


def test_guard_catches_stdout_writers():
    tree = ast.parse("import sys\n"
                     "def run(argv):\n    print(argv)\n    sys.stdout.write('x')\n"
                     "def cmd_a(args):\n    print('a', file=sys.stderr)\n"
                     "class K:\n    def f(self):\n        sys.stdout.flush()\n"
                     "out = sys.stdout\n")
    assert stdout_writers(tree) == ["cmd_a line 6", "K line 9", "module line 10"]


@pytest.mark.parametrize("argv, stdin", [(argv, stdin) for argv, stdin, _, _ in GOLDEN],
                         ids=[argv for argv, _, _, _ in GOLDEN])
def test_command_returns_its_output(argv, stdin, capsys, monkeypatch):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin)))
    args = cli._PARSER.parse_args(argv.split(" "))
    code, payload, lines = args.func(args)
    assert code in (cli.OK, cli.VIOLATION)
    assert isinstance(payload, dict) and payload
    assert lines and all(isinstance(line, str) for line in lines)
    assert capsys.readouterr() == ("", "")


def test_golden_cases_reach_every_command():
    commands = {cli._PARSER.parse_args(argv.split(" ")).func.__name__
                for argv, _, _, _ in GOLDEN}
    assert commands == {name for name in vars(cli) if name.startswith("cmd_")}


def _round12(obj):
    """The rule cli._to_json must follow: each float rounded to 12
    significant digits, tuples as lists, before json.dumps."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


JSON_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e300, -1e300, 1e-300, -1e-300, 0.1 + 0.2, 1 / 3])
JSON_STRINGS = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "\u2603😀"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_FLOATS | JSON_STRINGS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(st.integers(), min_size=1, max_size=4)
                   | st.dictionaries(JSON_STRINGS, inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    want = _round12(value)
    assert cli._to_json(value, 2) == json.dumps(want, sort_keys=True, indent=2)
    assert cli._to_json(value) == json.dumps(want, sort_keys=True)


def test_json_writer_refuses_what_json_refuses():
    for value in ({"a": np.int64(1)}, [np.bool_(True)], {1, 2}):
        with pytest.raises(TypeError):
            cli._to_json(value, 2)
