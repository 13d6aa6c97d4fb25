"""Package surface: exported names and the README's table and examples."""

import importlib
import json
import pkgutil
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import drtrack
from drtrack.cli import CONFIG_DEFAULTS, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in drtrack.__all__ if not hasattr(drtrack, name)]
    for info in pkgutil.iter_modules(drtrack.__path__):
        module = importlib.import_module(f"drtrack.{info.name}")
        missing += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert missing == []


def test_import_loads_no_process_pool_modules():
    # run_backtest imports them only when it starts worker processes
    code = (
        "import sys, drtrack; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    src = str(Path(drtrack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def _readme_config_table() -> list[tuple[str, str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("### Configuration", 1)[1].split("\n### ", 1)[0]
    return re.findall(r"^\| `([a-z0-9_.]+)` +\| `([^`]+)` *\|", section, re.MULTILINE)


def test_readme_config_table_lists_every_key_with_its_default():
    rows = _readme_config_table()
    assert [key for key, _ in rows] == list(CONFIG_DEFAULTS)
    for key, text in rows:
        default = CONFIG_DEFAULTS[key]
        value = text if isinstance(default, str) else json.loads(text)
        assert (type(value), value) == (type(default), default), key


def _readme_blocks(lang: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_readme_library_example_runs_within_its_budget():
    (example,) = _readme_blocks("python")
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    result = namespace["result"]
    # 40 phases of at most 200 descent steps each, plus the final gradient
    assert result.grad_evals <= 40 * 200 + 1
    assert result.status in ("converged", "iteration-cap")


def test_every_readme_command_parses():
    commands = []
    for block in _readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("drtrack "):
                commands.append(shlex.split(line)[1:])
    assert [argv[0] for argv in commands] == [
        "gen-data", "solve", "backtest", "grid-search", "compare"
    ]
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: drtrack {' '.join(argv)}")
