import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import shdh
from shdh.cli import build_parser, main
from shdh.codes import CodeDatabase, segment_layout
from shdh.errors import ShdhError
from shdh.io import parse_taxonomy

from conftest import TOY3_TEXT

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_section():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return section[:section.index("\n## ")]


def test_every_export_resolves():
    missing = [name for name in shdh.__all__ if not hasattr(shdh, name)]
    assert missing == []
    assert len(set(shdh.__all__)) == len(shdh.__all__)


def test_star_import():
    namespace = {}
    exec("from shdh import *", namespace)
    assert set(shdh.__all__) <= set(namespace)


def test_readme_library_use_runs(tmp_path, monkeypatch):
    # the README's "Library use" examples, in order, on a small `shdh gen`
    # set; only the iteration count is lowered
    blocks = re.findall(r"```python\n(.*?)```", library_use_section(), flags=re.S)
    assert blocks and "iters=200" in blocks[0]
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--out-dir", "data", "--n-train", "200", "--n-query", "5",
                 "--seed", "3"]) == 0
    namespace = {}
    for block in blocks:
        exec(block.replace("iters=200", "iters=2"), namespace)
    assert namespace["report"].ns == [100] and len(namespace["curves"].wr_by_n) == 200


def readme_name_resolver():
    """resolves(name) for a name the README gives in backticks: shdh.<module>
    and shdh.<module>.<name> against the modules (shdh.train is also the
    function, so modules are imported by name), <module>.<name> as
    shdh.<module>.<name>, a bare name in shdh or one of its modules, and
    Taxonomy, SegmentLayout, CodeDatabase and Segment (or the examples'
    tax, layout, qdb and db) against a toy instance, since some attributes,
    such as Taxonomy.sim_by_depth, exist only on an instance."""
    modules = [shdh] + [importlib.import_module(f"shdh.{m.name}")
                        for m in pkgutil.iter_modules(shdh.__path__) if not m.name.startswith("_")]
    tax = parse_taxonomy(TOY3_TEXT)
    layout = segment_layout(16, tax.K)
    db = CodeDatabase(layout=layout, packed=np.zeros((2, layout.total_bytes), np.uint8))
    instances = {"Taxonomy": tax, "tax": tax, "SegmentLayout": layout, "layout": layout,
                 "CodeDatabase": db, "qdb": db, "db": db, "Segment": layout.segments[0]}

    def resolves(name):
        head, *rest = name.split(".")
        if not rest:
            return any(hasattr(module, name) for module in modules)
        if head in instances:
            obj = instances[head]
        else:
            parts = name.split(".") if head == "shdh" else ["shdh", *name.split(".")]
            # the longest prefix that is a module, then attributes
            for i in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:i]))
                except ModuleNotFoundError:
                    continue
                rest = parts[i:]
                break
        for attr in rest:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True

    return resolves


def test_readme_library_use_names_only_calls_that_exist():
    # documentation drift: every call that the "Library use" prose names in
    # backticks resolves
    prose = re.sub(r"```.*?```", "", library_use_section(), flags=re.S)
    calls = set(re.findall(r"`([\w.]+)\(", prose))
    resolves = readme_name_resolver()
    assert calls and sorted(call for call in calls if not resolves(call)) == []


def test_readme_dotted_names_resolve():
    # documentation drift: every dotted name in backticks anywhere in the
    # README outside code blocks resolves; a file name after a "/" is a path
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    names = {name for span in re.findall(r"`([^`\n]+)`", prose)
             for name in re.findall(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)}
    resolves = readme_name_resolver()
    assert {"SegmentLayout.distances", "Taxonomy.sim_by_depth",
            "shdh.codes.ENCODE_BLOCK"} <= names
    assert sorted(name for name in names if not resolves(name)) == []


def test_readme_exit_code_table_lists_every_error():
    table = dict(re.findall(r"^\| `([A-Z_]+)` \| (\d) \|", README.read_text(), flags=re.M))

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    codes = {cls.code: str(cls.exit_code) for cls in walk(ShdhError) if "code" in vars(cls)}
    assert {code: table.get(code) for code in codes} == codes
    # IO_ERROR: an OSError that cli.main catches
    assert set(table) - set(codes) == {"IO_ERROR"}


def test_readme_names_only_flags_and_variables_that_exist():
    # documentation drift: every --flag the README names is declared by some
    # parser, and every SHDH_* name it gives occurs in the package source
    text = README.read_text()
    parser, registry = build_parser()
    declared = {option for p in (parser, *registry.values())
                for action in p._actions for option in action.option_strings}
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert flags and sorted(flags - declared) == []
    source = "".join(path.read_text() for path in Path(shdh.__file__).parent.glob("*.py"))
    names = set(re.findall(r"\bSHDH_[A-Z0-9_]+", text))
    assert sorted(name for name in names if name not in source) == []
