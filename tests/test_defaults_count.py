"""The number of defaulted parameters and record fields in the package.

Every parameter with a default, and every defaulted field of a dataclass or
`NamedTuple`, is a knob that some caller may set to a second value.  The
count is pinned, so that adding a knob (or removing one) is a visible edit
to the number below.  It is read from the syntax tree of each module."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trimoduli"

DEFAULTED = 11


def _name(node) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def _defaults(tree) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and (
                "dataclass" in map(_name, node.decorator_list)
                or "NamedTuple" in map(_name, node.bases)):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_counter_sees_each_kind():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass(frozen=True)\nclass R:\n    x: int\n    y: int = 0\n"
        "class T(typing.NamedTuple):\n    z: int = 1\n"
        "class Plain:\n    w: int = 5\n")
    assert _defaults(tree) == 5


def test_defaulted_count_is_pinned():
    count = sum(_defaults(ast.parse(p.read_text(encoding="utf-8")))
                for p in sorted(PACKAGE.glob("*.py")))
    assert count == DEFAULTED
