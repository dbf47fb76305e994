"""A small parser for the C subset used by the synthetic kernel.

This replaces the LLVM-based tooling of the paper's source extractor.  It
indexes one C translation unit into its top-level declarations:

* ``#define`` macros (with integer values where they are literal),
* ``struct`` type definitions and their fields,
* function definitions (signature + body text, found by brace matching),
* designated-initializer globals (``static const struct file_operations ...``).

The parser is intentionally tolerant: it works on text, skips anything it
does not recognise, and never needs a full C grammar — exactly like the
pattern-matching extractor described in §4 of the paper.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import CParseError

_DEFINE_RE = re.compile(r"^#define\s+(?P<name>\w+)\s+(?P<value>.+?)(?:\s*/\*.*\*/)?\s*$")
_STRUCT_OPEN_RE = re.compile(r"^(?:/\*.*\*/\s*)?struct\s+(?P<name>\w+)\s*\{\s*$")
_STRUCT_FIELD_RE = re.compile(
    r"^\s*(?P<type>(?:struct\s+)?[A-Za-z_]\w*(?:\s+[A-Za-z_]\w*)*)\s+"
    r"(?P<name>\w+)\s*(?:\[(?P<array>\w*)\])?\s*;"
)
_FUNCTION_RE = re.compile(
    r"^(?P<static>static\s+)?(?P<ret>[A-Za-z_]\w*(?:\s+[A-Za-z_]\w*)*?\s*\**)\s*"
    r"(?P<name>[A-Za-z_]\w+)\s*\((?P<params>[^)]*)\)\s*$"
)
_INITIALIZER_RE = re.compile(
    r"^static\s+(?:const\s+)?struct\s+(?P<type>\w+)\s+(?P<name>\w+(?:\[\])?)\s*=\s*\{\s*$"
)
_INIT_FIELD_RE = re.compile(r"^\s*\.(?P<field>\w+)\s*=\s*(?P<value>.+?),?\s*$")


@dataclass(frozen=True)
class MacroDef:
    """A ``#define``; ``int_value`` is None when the body is not a literal."""

    name: str
    body: str
    int_value: int | None
    text: str


@dataclass(frozen=True)
class StructField:
    """A parsed struct member."""

    c_type: str
    name: str
    array: str | None  # None = scalar, "" = flexible array, digits = fixed length

    @property
    def is_flexible_array(self) -> bool:
        return self.array == ""

    @property
    def fixed_length(self) -> int | None:
        if self.array and self.array.isdigit():
            return int(self.array)
        return None


@dataclass(frozen=True)
class StructDecl:
    """A parsed ``struct`` definition."""

    name: str
    fields: tuple[StructField, ...]
    text: str


@dataclass(frozen=True)
class FunctionDecl:
    """A parsed function definition (signature plus raw body text)."""

    name: str
    return_type: str
    params: str
    body: str
    text: str

    def calls(self) -> tuple[str, ...]:
        """Names of functions invoked in the body (approximate, textual)."""
        found = re.findall(r"\b([a-zA-Z_]\w+)\s*\(", self.body)
        keywords = {"if", "for", "while", "switch", "return", "sizeof", "ARRAY_SIZE"}
        return tuple(dict.fromkeys(name for name in found if name not in keywords))


@dataclass(frozen=True)
class InitializerDecl:
    """A parsed designated-initializer global."""

    struct_type: str
    var_name: str
    fields: tuple[tuple[str, str], ...]
    text: str

    def field_value(self, name: str) -> str | None:
        for field_name, value in self.fields:
            if field_name == name:
                return value
        return None


@dataclass
class TranslationUnit:
    """The parsed contents of one source file."""

    path: str
    macros: dict[str, MacroDef] = field(default_factory=dict)
    structs: dict[str, StructDecl] = field(default_factory=dict)
    functions: dict[str, FunctionDecl] = field(default_factory=dict)
    initializers: dict[str, InitializerDecl] = field(default_factory=dict)

    def lookup(self, identifier: str):
        """Return whichever declaration carries this identifier, if any."""
        for table in (self.functions, self.structs, self.initializers, self.macros):
            if identifier in table:
                return table[identifier]
        return None


def _parse_int(text: str) -> int | None:
    text = text.strip()
    try:
        return int(text, 0)
    except ValueError:
        return None


def parse_translation_unit(path: str, text: str) -> TranslationUnit:
    """Parse one source file into a :class:`TranslationUnit`."""
    unit = TranslationUnit(path=path)
    lines = text.splitlines()
    index = 0
    total = len(lines)
    while index < total:
        line = lines[index]
        stripped = line.strip()
        define_match = _DEFINE_RE.match(stripped)
        if define_match:
            name = define_match.group("name")
            body = define_match.group("value").strip()
            unit.macros[name] = MacroDef(name=name, body=body, int_value=_parse_int(body), text=stripped)
            index += 1
            continue
        struct_match = _STRUCT_OPEN_RE.match(stripped)
        if struct_match:
            index = _parse_struct(unit, lines, index, struct_match.group("name"))
            continue
        init_match = _INITIALIZER_RE.match(stripped)
        if init_match:
            index = _parse_initializer(unit, lines, index, init_match)
            continue
        func_match = _FUNCTION_RE.match(stripped)
        if func_match and index + 1 < total and lines[index + 1].strip() == "{":
            index = _parse_function(unit, lines, index, func_match)
            continue
        index += 1
    return unit


def _parse_struct(unit: TranslationUnit, lines: list[str], start: int, name: str) -> int:
    fields: list[StructField] = []
    collected = [lines[start]]
    index = start + 1
    while index < len(lines):
        line = lines[index]
        collected.append(line)
        stripped = line.strip()
        index += 1
        if stripped.startswith("};") or stripped == "}":
            break
        field_match = _STRUCT_FIELD_RE.match(stripped)
        if field_match:
            raw_name = field_match.group("name")
            array = field_match.group("array")
            # A flexible array member renders as ``type name[];`` — the regex
            # captures the empty brackets as array == "".
            if raw_name.endswith("[]"):
                raw_name = raw_name[:-2]
                array = ""
            fields.append(
                StructField(c_type=field_match.group("type").strip(), name=raw_name, array=array)
            )
    unit.structs[name] = StructDecl(name=name, fields=tuple(fields), text="\n".join(collected))
    return index


def _parse_function(unit: TranslationUnit, lines: list[str], start: int, match: re.Match) -> int:
    depth = 0
    body_lines: list[str] = []
    collected = [lines[start]]
    index = start + 1
    started = False
    while index < len(lines):
        line = lines[index]
        collected.append(line)
        depth += line.count("{") - line.count("}")
        if not started:
            started = True
            index += 1
            continue
        if depth <= 0:
            index += 1
            break
        body_lines.append(line)
        index += 1
    name = match.group("name")
    unit.functions[name] = FunctionDecl(
        name=name,
        return_type=(match.group("ret") or "").strip(),
        params=match.group("params").strip(),
        body="\n".join(body_lines),
        text="\n".join(collected),
    )
    return index


def _parse_initializer(unit: TranslationUnit, lines: list[str], start: int, match: re.Match) -> int:
    fields: list[tuple[str, str]] = []
    collected = [lines[start]]
    index = start + 1
    while index < len(lines):
        line = lines[index]
        collected.append(line)
        stripped = line.strip()
        index += 1
        if stripped.startswith("};") or stripped == "}":
            break
        field_match = _INIT_FIELD_RE.match(stripped)
        if field_match:
            fields.append((field_match.group("field"), field_match.group("value").rstrip(",")))
    var_name = match.group("name").removesuffix("[]")
    unit.initializers[var_name] = InitializerDecl(
        struct_type=match.group("type"),
        var_name=var_name,
        fields=tuple(fields),
        text="\n".join(collected),
    )
    return index


__all__ = [
    "MacroDef",
    "StructField",
    "StructDecl",
    "FunctionDecl",
    "InitializerDecl",
    "TranslationUnit",
    "parse_translation_unit",
]
