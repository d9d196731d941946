"""Generate docs/api.md from the package's docstrings.

Walks every public module of ``repro``, extracting module, class and
function summaries into a single markdown reference.  Run from the repo
root whenever the public surface changes:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro


def first_paragraph(doc: str) -> str:
    """The first paragraph of a docstring, joined to one line."""
    if not doc:
        return "*(undocumented)*"
    lines = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def document_module(name: str) -> str:
    module = importlib.import_module(name)
    parts = [f"## `{name}`", "", first_paragraph(module.__doc__), ""]
    members = inspect.getmembers(module)
    classes = [
        (n, obj) for n, obj in members
        if inspect.isclass(obj) and obj.__module__ == name
        and not n.startswith("_")
    ]
    functions = [
        (n, obj) for n, obj in members
        if inspect.isfunction(obj) and obj.__module__ == name
        and not n.startswith("_")
    ]
    for cls_name, cls in classes:
        parts.append(f"### class `{cls_name}`")
        parts.append("")
        parts.append(first_paragraph(cls.__doc__))
        parts.append("")
        methods = [
            (n, m) for n, m in inspect.getmembers(cls, inspect.isfunction)
            if not n.startswith("_") and m.__qualname__.startswith(cls.__name__)
        ]
        for method_name, method in methods:
            parts.append(
                f"- `{method_name}{signature_of(method)}` — "
                f"{first_paragraph(method.__doc__)}"
            )
        if methods:
            parts.append("")
    for fn_name, fn in functions:
        parts.append(
            f"- `{fn_name}{signature_of(fn)}` — {first_paragraph(fn.__doc__)}"
        )
    if functions:
        parts.append("")
    return "\n".join(parts)


def api_reference() -> str:
    """The text of ``docs/api.md``: every public module, sorted by name."""
    module_names = ["repro"]
    package_path = Path(repro.__file__).parent
    for info in pkgutil.walk_packages([str(package_path)], prefix="repro."):
        if "__main__" in info.name:
            continue
        module_names.append(info.name)
    sections = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` from the package docstrings.",
        "",
    ]
    for name in sorted(module_names):
        sections.append(document_module(name))
    return "\n".join(sections) + "\n"


def main() -> int:
    out = Path(__file__).parent.parent / "docs" / "api.md"
    out.write_text(api_reference())
    # Generator status line for the operator who just ran it.
    # simlint: disable=SL402
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
