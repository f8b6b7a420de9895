"""Every join in mhray is a keyed attach (rayutil.attach_payload and
friends) or a groupby/map_groups emitter. Ray's join operator and the
empty-block wrapper it needed must not come back: this walks the AST
of every module under mhray/ and fails on any call passing a
``join_type=`` keyword or any reference to ``safe_join``."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _offences(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(
                kw.arg == "join_type" for kw in node.keywords):
            yield node.lineno, "join_type= keyword"
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else node.name if isinstance(node, ast.FunctionDef)
                else None)
        if name == "safe_join":
            yield getattr(node, "lineno", 0), "safe_join reference"


def test_no_join_operator_in_mhray():
    found = []
    n_files = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "mhray")):
        for f in files:
            if f.endswith(".py"):
                n_files += 1
                path = os.path.join(dirpath, f)
                found += [f"{os.path.relpath(path, ROOT)}:{line}: {what}"
                          for line, what in _offences(path)]
    assert n_files > 10
    assert not found, found


def test_guard_catches_both_shapes(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from mhray.rayutil import safe_join\n"
                   "out = left.join(right, join_type='inner', on=('k',))\n")
    assert sorted(what for _, what in _offences(str(bad))) == [
        "join_type= keyword", "safe_join reference"]
