"""Workloads of the spinplanar benchmark: seeded inputs and closed-form answers.

Each workload is a list of tasks.  A task is one `spinplanar qdims` or
`spinplanar group` invocation on one JSON object file generated here from
the run's seed; the program sees only that file.  Every answer is checked
against a closed form that does not come from the tower under test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

TOL = 1e-9  # passed to the CLI as --tol and used for every residual check


@dataclass(frozen=True)
class Task:
    label: str
    command: str  # "qdims" or "group"
    options: tuple[str, ...]
    input: dict  # JSON object written to the task's input file
    dims: tuple[int, ...]  # closed-form dimensions at levels 0..max level
    closure: bool = False


# ---------------------------------------------------------------------------
# seeded input generators


def fourier(n: int) -> np.ndarray:
    w = np.exp(2j * np.pi / n)
    k = np.arange(n)
    return w ** np.outer(k, k)


def hadamard_equivalent(rng: np.random.Generator, n: int) -> np.ndarray:
    """D1 P1 F_n P2 D2 with uniform random phases and random permutations."""
    d1, d2 = (np.exp(2j * np.pi * rng.random(n)) for _ in range(2))
    p1, p2 = rng.permutation(n), rng.permutation(n)
    return d1[:, None] * fourier(n)[np.ix_(p1, p2)] * d2[None, :]


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def tensor_biunitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """A (x) B for Haar-random unitaries A, B of size n: always biunitary."""
    return np.kron(haar_unitary(rng, n), haar_unitary(rng, n))


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n + 1 for b in range(n)] for a in range(n)]


def s3_table() -> list[list[int]]:
    perms = list(itertools.permutations(range(3)))
    index = {p: i + 1 for i, p in enumerate(perms)}
    return [[index[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms]


def relabel(table: list[list[int]], rng: np.random.Generator) -> list[list[int]]:
    """The same group with its elements renamed by a random permutation pi.

    The new table has pi(a*b) at row pi(a), column pi(b).
    """
    n = len(table)
    pi = [int(v) + 1 for v in rng.permutation(n)]
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[pi[a] - 1][pi[b] - 1] = pi[table[a][b] - 1]
    return out


def _pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def hadamard_json(h: np.ndarray) -> dict:
    return {"type": "hadamard", "n": h.shape[0], "entries": _pairs(h)}


def biunitary_json(n: int, u: np.ndarray) -> dict:
    return {"type": "biunitary", "n": n, "entries": _pairs(u)}


def group_json(table: list[list[int]]) -> dict:
    return {"rows": table}


# ---------------------------------------------------------------------------
# closed forms and workloads


def fourier_dims(n: int, max_level: int) -> tuple[int, ...]:
    """1, 1, n, n^2, ...: Fourier matrices and groups of order n alike."""
    return (1,) + tuple(n ** (m - 1) for m in range(1, max_level + 1))


def tensor_dims(n: int, max_level: int) -> tuple[int, ...]:
    """(n^2)^m: a tensor biunitary A (x) B, cabled two strands at a time."""
    return tuple(n ** (2 * m) for m in range(max_level + 1))


def _qdims(label, obj, level, dims, closure=False) -> Task:
    options = ("--max-level", str(level), "--tol", str(TOL))
    if closure:
        options += ("--closure",)
    return Task(label, "qdims", options, obj, dims, closure)


def hadamard_tower(rng: np.random.Generator) -> list[Task]:
    # Dense u_m: column assembly is about 70% of the time and kernel
    # post-processing about 20%; factorization is small, closure never runs.
    return [_qdims(f"F{n}~ to level {level}", hadamard_json(hadamard_equivalent(rng, n)),
                   level, fourier_dims(n, level))
            for n, level in ((3, 5), (4, 4))]


def group_tower(rng: np.random.Generator) -> list[Task]:
    # Tall operators (7776 x 216) over sparse, permutation-like u_m:
    # factorization is about 60% of the time and assembly about 25%; the
    # group oracle's checks run here and nowhere else.
    tasks = []
    for name, table in (("S3", s3_table()), ("Z6", cyclic_table(6))):
        options = ("--max-level", "3", "--tol", str(TOL))
        tasks.append(Task(f"relabeled {name} to level 3", "group", options,
                          group_json(relabel(table, rng)), fourier_dims(len(table), 3)))
    return tasks


def closure_sweep(rng: np.random.Generator) -> list[Task]:
    # The closure check is about 90% of the time; A (x) B is the only input
    # on the width-4, two-strand path.
    return [
        _qdims("A(x)B n=2 to level 3, closure", biunitary_json(2, tensor_biunitary(rng, 2)),
               3, tensor_dims(2, 3), closure=True),
        _qdims("F4~ to level 3, closure", hadamard_json(hadamard_equivalent(rng, 4)),
               3, fourier_dims(4, 3), closure=True),
    ]


WORKLOADS = {
    "hadamard_tower": hadamard_tower,
    "group_tower": group_tower,
    "closure_sweep": closure_sweep,
}


def make_tasks(workload: str, seed: int) -> list[Task]:
    return WORKLOADS[workload](np.random.default_rng(seed))


def check_answer(task: Task, code: int, payload: dict | None) -> list[str]:
    """Every way the task's answer is wrong; empty when it is right."""
    if code != 0:
        return [f"exit code {code}"]
    if not isinstance(payload, dict):
        return ["no JSON object on standard output"]
    problems = []
    levels = payload.get("levels", [])
    dims = tuple(level.get("dim") for level in levels)
    if dims != task.dims:
        problems.append(f"dimensions {list(dims)}, expected {list(task.dims)}")
    for level in levels:
        if not level.get("residual", np.inf) <= TOL:
            problems.append(f"level {level.get('m')} residual {level.get('residual')}")
    if task.command == "qdims":
        zero_minus = payload.get("zero_minus") or {}
        if zero_minus.get("dim") != 1:
            problems.append(f"zero-minus dimension {zero_minus.get('dim')}, expected 1")
        if not zero_minus.get("residual", np.inf) <= TOL:
            problems.append(f"zero-minus residual {zero_minus.get('residual')}")
    if task.closure:
        closure = payload.get("closure") or {}
        residuals = closure.get("residuals") or {"missing": np.inf}
        if closure.get("ok") is not True or not all(v <= TOL for v in residuals.values()):
            problems.append(f"closure failed: {residuals}")
    if task.command == "group":
        if payload.get("verdict") is not True:
            problems.append("group verdict is not PASS")
        if tuple(payload.get("predicted", ())) != task.dims:
            problems.append(f"predicted {payload.get('predicted')}, expected {list(task.dims)}")
    return problems
