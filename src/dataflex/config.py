"""Config files: a small YAML-subset parser and RunConfig (de)serialization.

Supported syntax: nested maps via indentation, flow lists of scalars
(``[1, 2.5, x]``), block sequences of scalars or flow lists (``- item``),
comments, and quoted or bare scalars. Tabs in indentation are rejected.
The restriction keeps the key contract bit-exact and the error messages
line-accurate; nothing in this package needs more.

``SECTIONS`` maps each config key to the dataclass field it sets. The keys
of ``ModelCfg``, ``OptimCfg`` and ``Schedule`` are read from their fields,
in declaration order; ``optimizer``, for ``OptimCfg.kind``, is the one
alias. ``RunConfig``'s own keys and the CLI's ``out_dir`` are listed by
hand. Defaults live only on the dataclasses (``ModelCfg``, ``OptimCfg``,
``Schedule``, ``RunConfig``): a key left out of a file takes the field's
default, and values are coerced by ``core.params_from`` and checked
against the bounds declared on each field (``core.check_fields``).
"""

from __future__ import annotations

import dataclasses
import re
import typing
from pathlib import Path

from .core import MixtureWeights, ModelCfg, OptimCfg, RunConfig, Schedule, check_keys, params_from
from .errors import ParseError

_BARE_KEY = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")

#: The config keys of each section that RunConfig reads: config key ->
#: (RunConfig field whose dataclass holds the value, "" for RunConfig itself;
#: field name), or None for a key the CLI alone reads. It drives both
#: ``config_from_tree`` and ``serialize_config``, in this order.
SECTIONS = {
    "model": {f.name: ("model_cfg", f.name) for f in dataclasses.fields(ModelCfg)},
    "train": {
        "optimizer": ("optim_cfg", "kind"),
        **{f.name: ("optim_cfg", f.name) for f in dataclasses.fields(OptimCfg) if f.name != "kind"},
        **{key: ("", key) for key in ("seed", "max_steps", "eval_interval")},
        "out_dir": None,
    },
    "dataflex": {
        **{key: ("", key) for key in ("train_type", "component_name")},
        **{f.name: ("schedule", f.name) for f in dataclasses.fields(Schedule)},
        **{key: ("", key) for key in ("init_mixture_proportions", "component_params")},
    },
}
TOP_LEVEL_SECTIONS = ("model", "data", "train", "dataflex", "mix_sim")


def _parse_scalar(text: str, line: int):
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("true", "yes"):
        return True
    if lowered in ("false", "no"):
        return False
    if lowered in ("null", "~", ""):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if _BARE_KEY.match(text) or " " in text or "/" in text or "." in text:
        return text
    raise ParseError(f"cannot parse scalar {text!r}", line)


def _parse_flow_list(text: str, line: int) -> list:
    body = text.strip()[1:-1].strip()
    if not body:
        return []
    return [_parse_scalar(part, line) for part in body.split(",")]


def _strip_comment(line: str) -> str:
    out = []
    quote = None
    for ch in line:
        if quote:
            out.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            out.append(ch)
    return "".join(out).rstrip()


def parse_text(text: str) -> dict:
    """Parse a config document into nested dicts / lists / scalars."""
    lines = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw)
        if not stripped.strip():
            continue
        indent_part = stripped[: len(stripped) - len(stripped.lstrip())]
        if "\t" in indent_part:
            raise ParseError("tabs are not allowed in indentation", idx)
        lines.append((len(indent_part), stripped.strip(), idx))

    pos = 0

    def parse_block(indent: int):
        nonlocal pos
        if pos < len(lines) and lines[pos][1].startswith("- "):
            return parse_sequence(indent)
        return parse_mapping(indent)

    def parse_sequence(indent: int) -> list:
        nonlocal pos
        items = []
        while pos < len(lines) and lines[pos][0] == indent and lines[pos][1].startswith("- "):
            _, content, lineno = lines[pos]
            pos += 1
            body = content[2:].strip()
            if body.startswith("[") and body.endswith("]"):
                items.append(_parse_flow_list(body, lineno))
            else:
                items.append(_parse_scalar(body, lineno))
        return items

    def parse_mapping(indent: int) -> dict:
        nonlocal pos
        out: dict = {}
        while pos < len(lines):
            line_indent, content, lineno = lines[pos]
            if line_indent < indent:
                break
            if line_indent > indent:
                raise ParseError(f"unexpected indentation of {line_indent}", lineno)
            if content.startswith("- "):
                raise ParseError("sequence item where a mapping key was expected", lineno)
            if ":" not in content:
                raise ParseError(f"expected 'key: value', got {content!r}", lineno)
            key, _, rest = content.partition(":")
            key = key.strip()
            if not _BARE_KEY.match(key):
                raise ParseError(f"invalid key {key!r}", lineno)
            if key in out:
                raise ParseError(f"duplicate key {key!r}", lineno)
            rest = rest.strip()
            pos += 1
            if rest == "":
                if pos < len(lines) and lines[pos][0] > indent:
                    out[key] = parse_block(lines[pos][0])
                else:
                    out[key] = None
            elif rest.startswith("[") and rest.endswith("]"):
                out[key] = _parse_flow_list(rest, lineno)
            else:
                out[key] = _parse_scalar(rest, lineno)
        return out

    tree = parse_mapping(0) if lines else {}
    if pos != len(lines):
        raise ParseError("could not consume the whole document", lines[pos][2])
    return tree


def load_config_tree(path) -> dict:
    text = Path(path).read_text()
    tree = parse_text(text)
    check_keys(tree, TOP_LEVEL_SECTIONS, "config")
    return tree


def _require_map(value, name: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseError(f"section {name!r} must be a mapping")
    return value


def config_from_tree(tree: dict) -> RunConfig:
    """Build a RunConfig from a parsed config tree, through ``SECTIONS``."""
    user = {"": {}, "model_cfg": {}, "optim_cfg": {}, "schedule": {}}
    aliases = {target: {} for target in user}
    for section, table in SECTIONS.items():
        body = _require_map(tree.get(section), section)
        check_keys(body, table, section)
        for key, value in body.items():
            if table[key] is not None:
                target, name = table[key]
                user[target][key] = value
                aliases[target][key] = name
    top = user[""]
    for key in ("component_name", "component_params"):
        if key in top and top[key] is None:
            del top[key]  # an empty ``component_name:`` or ``component_params:`` means none
    hints = typing.get_type_hints(RunConfig)
    for target in ("model_cfg", "optim_cfg", "schedule"):
        top[target] = params_from(hints[target], user[target], "config", aliases[target])
    return params_from(RunConfig, top, "config")


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if value is None:
        return "null"
    text = str(value)
    return text if _BARE_KEY.match(text) and _parse_scalar(text, 0) == text else f'"{text}"'


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig back into config text; parse(serialize(x)) == x.

    Keys whose value is None or empty are left out, so they read back as
    their defaults.
    """
    lines = []
    for section, table in SECTIONS.items():
        lines.append(f"{section}:")
        for key, target in table.items():
            if target is None:
                continue
            owner, name = target
            value = getattr(getattr(cfg, owner) if owner else cfg, name)
            if value is None or value == "" or value == {}:
                continue
            if isinstance(value, MixtureWeights):
                lines.append(f"  {key}: [{', '.join(repr(float(x)) for x in value.weights)}]")
            elif isinstance(value, dict):
                lines.append(f"  {key}:")
                lines.extend(f"    {k}: {_format_scalar(value[k])}" for k in sorted(value))
            else:
                lines.append(f"  {key}: {_format_scalar(value)}")
    return "\n".join(lines) + "\n"
