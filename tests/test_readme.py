"""README.md as a contract: its config block, command lines, quick start and
module table are run against the package, so renaming a key, a flag or a
public name without updating the README fails here."""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from nvsk import cli, config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the line `heading`."""
    after = README[README.index(f"\n{heading}\n") :]
    return re.search(rf"```{language}\n(.*?)```", after, re.S).group(1)


def significant_digits(text: str) -> int:
    mantissa = text.lower().split("e")[0].lstrip("+-").replace(".", "").lstrip("0")
    return max(len(mantissa), 1)


def test_config_block_parses_and_prints_the_defaults(tmp_path):
    block = fenced_block("## Configuration grammar", "ini")
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    parsed = config.parse_config(path).as_dict()
    defaults = config.default_config().as_dict()
    printed = {}  # (section, key) -> the value as README prints it
    section = None
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            key, value = (part.strip() for part in line.split("=", 1))
            printed[section, key] = value
    for section, keys in defaults.items():
        for key, default in keys.items():
            assert (section, key) in printed, f"README omits [{section}] {key}"
            digits = significant_digits(printed[section, key])
            assert parsed[section][key] == type(default)(f"{default:.{digits}g}"), (section, key)


def test_command_lines_parse():
    block = fenced_block("## Command line", "sh").replace("\\\n", " ")
    lines = [line for line in block.splitlines() if line.startswith("nvsk ")]
    assert len(lines) == 11
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_quick_start_prints_the_stated_t2_star():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_block("## Library quick start", "python"), {})
    bath, dq = (float(line) for line in out.getvalue().split())
    assert round(bath, 1) == 20.3  # "~20.3 us"
    assert dq == pytest.approx(bath / 2.0, rel=1e-12)


def _resolve(name: str, modules):
    """The object a module-table name refers to: an attribute of one of the
    row's modules, or a dotted path from nvsk or numpy (np)."""
    for module in modules:
        if hasattr(module, name):
            return getattr(module, name)
    head, *rest = name.split(".")
    obj = {"np": np}.get(head) or importlib.import_module(head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_module_table_names_exist():
    table = README[README.index("| module") : README.index("\n\n", README.index("| module"))]
    rows = table.splitlines()[2:]
    assert rows
    for row in rows:
        module_cell, contents = row.strip("|").split("|", 1)
        modules = [importlib.import_module(m) for m in re.findall(r"`([\w.]+)`", module_cell)]
        assert modules, row
        for name in re.findall(r"`([^`]+)`", contents):
            _resolve(name, modules)  # AttributeError or ImportError on a stale name
