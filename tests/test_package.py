"""Package surface: exported names and the README's configuration table."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import drtrack
from drtrack.cli import CONFIG_DEFAULTS

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
