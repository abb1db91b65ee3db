"""Every float steady state goes through one balance-system solve.

``repro.markov.ctmc._solve_balance`` holds the package's only dense and
only sparse factorisation call; per-point, batched, sparse and
heterogeneous steady states all reach it through one routing rule.  This
scan walks every module under ``repro/markov`` and fails on any linear
solve outside that routine, so a second private copy of the balance
system (with its own ordering, routing or missing guards) cannot creep
back in.  The one exemption is the hitting-time solve in
``transient.mean_time_to_blocking``, which solves ``Q_AA h = -1`` over
the available states, not a balance system.
"""

import ast
from pathlib import Path

import repro.markov

DENSE_SOLVES = {
    "numpy.linalg.solve",
    "numpy.linalg.inv",
    "numpy.linalg.lstsq",
    "scipy.linalg.solve",
    "scipy.linalg.inv",
    "scipy.linalg.lstsq",
    "scipy.linalg.lu_factor",
    "scipy.linalg.lu_solve",
}
SPARSE_SOLVES = {
    f"scipy.sparse.linalg.{name}"
    for name in (
        "spsolve",
        "splu",
        "spilu",
        "factorized",
        "gmres",
        "lgmres",
        "bicgstab",
        "cg",
        "minres",
    )
}
HOME = ("ctmc.py", "_solve_balance")
EXEMPT = {("transient.py", "mean_time_to_blocking")}


def solve_sites(source: str) -> list[tuple[str, str, int]]:
    """``(enclosing function, "dense"|"sparse", line)`` per solve call."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def dotted(func: ast.expr) -> str | None:
        parts: list[str] = []
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name) or func.id not in aliases:
            return None
        return ".".join([aliases[func.id], *reversed(parts)])

    sites: list[tuple[str, str, int]] = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = dotted(child.func)
                if name in DENSE_SOLVES:
                    sites.append((function, "dense", child.lineno))
                elif name in SPARSE_SOLVES:
                    sites.append((function, "sparse", child.lineno))
            visit(child, function)

    visit(tree, "<module>")
    return sites


def markov_sites() -> list[tuple[str, str, str, int]]:
    root = Path(repro.markov.__file__).parent
    return [
        (path.relative_to(root).as_posix(), function, kind, line)
        for path in sorted(root.rglob("*.py"))
        for function, kind, line in solve_sites(path.read_text(encoding="utf-8"))
    ]


def test_scanner_sees_aliased_solves():
    source = (
        "import numpy as np\n"
        "import scipy.sparse.linalg\n"
        "from scipy.sparse.linalg import spsolve as direct\n"
        "from numpy.linalg import solve\n"
        "def f(a, b):\n"
        "    np.linalg.solve(a, b)\n"
        "    solve(a, b)\n"
        "    direct(a, b)\n"
        "    scipy.sparse.linalg.splu(a)\n"
        "    np.linalg.norm(a)\n"
    )
    assert solve_sites(source) == [
        ("f", "dense", 6),
        ("f", "dense", 7),
        ("f", "sparse", 8),
        ("f", "sparse", 9),
    ]


def test_one_dense_and_one_sparse_solve_site():
    sites = markov_sites()
    stray = [site for site in sites if site[:2] != HOME and site[:2] not in EXEMPT]
    assert not stray, (
        "steady-state solves outside ctmc._solve_balance (route them "
        f"through it): {stray}"
    )
    home = sorted(kind for *where, kind, _ in sites if tuple(where) == HOME)
    assert home == ["dense", "sparse"], sites
