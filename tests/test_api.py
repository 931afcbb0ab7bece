import re
from pathlib import Path

import shdh
from shdh.cli import main
from shdh.errors import ShdhError

README = Path(__file__).resolve().parents[1] / "README.md"


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
    text = README.read_text()
    section = text[text.index("## Library use"):]
    section = section[:section.index("\n## ")]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks and "iters=200" in blocks[0]
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--out-dir", "data", "--n-train", "200", "--n-query", "5",
                 "--seed", "3"]) == 0
    namespace = {}
    for block in blocks:
        exec(block.replace("iters=200", "iters=2"), namespace)
    assert namespace["report"].ns == [100] and len(namespace["curves"].wr_by_n) == 200


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
