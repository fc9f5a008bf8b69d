"""Seeded inputs of the three benchmark workloads.

Each workload turns a seed into a list of scenario files written into a
work directory, with the command-line arguments every file is run with and
the verdict the run must produce.  The program under test sees only these
files.  Polynomial scenarios come from ``jetstress.generate_scenario`` with a
fixed structure seed and coefficients drawn from the workload seed; the
curved analytic ones come from the template below, whose structure is fixed
too; the bundled scenarios are copied byte for byte from ``scenarios/``.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "scenarios"

# Checks that evaluate at sample points only, never on a quadrature grid.
POINTWISE_CHECKS = ("div-consistency", "second-contraction", "jet-oracle", "covariance")


@dataclass(frozen=True)
class Input:
    """One scenario run: file, extra ``jetstress run`` arguments, expected verdict.

    ``expected`` maps each check the run reports to its expected ``pass``
    flag; it is empty when the run must stop with a configuration error.
    """

    name: str
    path: Path
    args: Tuple[str, ...]
    exit_code: int
    expected: Dict[str, bool]

    def argv(self, report: Path) -> List[str]:
        return ["run", "--scenario", str(self.path), *self.args, "--report", str(report)]


def _scenarios():
    # Resolved at call time so a traced run sees its wrappers.
    import jetstress.scenarios

    return jetstress.scenarios


def _write(workdir: Path, name: str, text: str) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    return path


def _check_args(checks: Sequence[str]) -> Tuple[str, ...]:
    out: List[str] = []
    for cid in checks:
        out += ["--check", cid]
    return tuple(out)


def _redraw_coefficients(doc: Dict, rng: random.Random) -> None:
    """Give every monomial a new coefficient from ``rng``, drawn as ``generate`` draws it.

    Tables shared between symmetric entries are redrawn once, so the
    document stays symmetric where ``generate`` made it so.
    """
    seen = set()

    def walk(node) -> None:
        if isinstance(node, dict) and "monomials" in node:
            if id(node) not in seen:
                seen.add(id(node))
                for entry in node["monomials"]:
                    entry[1] = round(rng.uniform(-1.0, 1.0), 6)
        elif isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(doc)


def _generated(workdir: Path, rng: random.Random, structure: int, n: int, d: int,
               degree: int, checks: Optional[Sequence[str]] = None) -> Input:
    """``generate_scenario(structure, ...)`` with coefficients redrawn from the workload seed.

    The cost of a run follows the monomial exponents, which ``generate``
    draws at random; with the exponents drawn at random too, one run's time
    varied by a quarter from seed to seed.  A fixed ``structure`` seed keeps
    the exponents, and so the work, the same for every workload seed.
    """
    scenarios = _scenarios()
    doc = scenarios.generate_scenario(structure, n, d, degree)
    _redraw_coefficients(doc, rng)
    name = f"gen{structure}-n{n}-d{d}-deg{degree}"
    selected = list(doc["checks"])
    args: Tuple[str, ...] = ()
    if checks is not None:
        selected = [c for c in checks if c in doc["checks"]]
        args = _check_args(selected)
    path = _write(workdir, name, scenarios.scenario_to_json(doc))
    return Input(name, path, args, 0, {c: True for c in selected})


def _bundled(workdir: Path, stem: str, exit_code: int = 0,
             checks: Optional[Sequence[str]] = None) -> Input:
    source = BUNDLED / f"{stem}.json"
    path = workdir / source.name
    shutil.copyfile(source, path)
    if exit_code == 2:
        return Input(stem, path, (), 2, {})
    configured = json.loads(source.read_text(encoding="utf-8"))["checks"]
    selected = configured if checks is None else [c for c in checks if c in configured]
    args = () if checks is None else _check_args(selected)
    return Input(stem, path, args, exit_code, {c: exit_code == 0 for c in selected})


# -- curved analytic template ---------------------------------------------------

# Component templates: the structure is fixed, the seed sets the coefficient.
# Every one is smooth and bounded on the patched bodies used below.
_TERMS = (
    "{c}*sin({a}) + {b}",
    "exp({c}*{b})",
    "{c}*cos({a}*{b})",
    "{a}*{b} - {c}",
    "sin({c}*{a}) + {b}^2",
    "{c}*exp(-{a})*{b}",
)


def _coef(rng: random.Random, lo: float = 0.2, hi: float = 0.8) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def _tensor(rng: random.Random, n: int, shape: Tuple[int, ...], start: int):
    """Nested lists of template expressions; ``start`` staggers the templates."""
    counter = [start]

    def build(dims):
        if not dims:
            i = counter[0]
            counter[0] += 1
            a, b = f"x{i % n + 1}", f"x{(i + 1) % n + 1}"
            return _TERMS[i % len(_TERMS)].format(c=_coef(rng), a=a, b=b)
        return [build(dims[1:]) for _ in range(dims[0])]

    return build(shape)


def curved_scenario(rng: random.Random, n: int, quad_order: int) -> Dict:
    """Analytic stress and velocity on a body carried by a polynomial patch."""
    x = [f"x{i + 1}" for i in range(n)]
    lift = [_coef(rng, 0.05, 0.15) for _ in range(n)]
    # x_i + a_i * x_{i+1} * x_{i+2}: a small nonlinear shear, an embedding of the unit box.
    patch = [f"{x[i]} + {lift[i]}*{x[(i + 1) % n]}*{x[(i + 2) % n]}" for i in range(n)]
    d = 1
    vector = ["1"] + [f"{_coef(rng, 0.1, 0.3)}*{x[i]}" for i in range(1, n)]
    metric = [["0"] * n for _ in range(n)]
    for i in range(n):
        metric[i][i] = f"sqrt(1 + {_coef(rng, 0.1, 0.5)}*{x[i]}^2)"
    return {
        "schema": "jetstress-scenario/1",
        "name": f"curved-n{n}-q{quad_order}",
        "bundle": {"n": n, "d": d},
        "geometry": {
            "chart_box": [[-1.0, 2.0]] * n,
            "body_box": [[0.0, 1.0]] * n,
            "patch": patch,
            "quad_order": quad_order,
        },
        "stress": {
            "order1": {"s0": _tensor(rng, n, (d,), 0), "s1": _tensor(rng, n, (d, n), 1)},
            "raw": {
                "x0": _tensor(rng, n, (d,), 2),
                "x1": _tensor(rng, n, (d, n), 3),
                "x2": _tensor(rng, n, (d, n), 4),
                "x3": _tensor(rng, n, (d, n, n), 5),
            },
        },
        "velocity": {
            "u": [f"sin({_coef(rng)}*x1 + x2) + {_coef(rng)}*exp({x[-1]})*x1"]
        },
        "transversals": {
            "x1-upper": {"vector": vector},
            "x2-upper": {"metric": metric},
        },
        "checks": ["balance1", "balance2", "jet-oracle"],
        "tolerances": {},
    }


# -- workloads --------------------------------------------------------------------


def quad_poly(seed: int, workdir: Path) -> List[Input]:
    """n=3 generated scenarios, every configured check, quadrature order 6.

    The (d, degree) grid is (1, 3) and (2, 4).  A q=10 case would take most
    of a run by itself and leave one timing of each input per run, too few
    to see past interference from other work on a shared machine; n=3 at
    q=10 is measured by ``curved-analytic``.
    """
    rng = random.Random(seed)
    inputs = [_generated(workdir, rng, 0, 3, d, degree) for d, degree in ((1, 3), (2, 4))]
    inputs.append(_bundled(workdir, "cube-order2"))
    return inputs


def pointwise_n2(seed: int, workdir: Path) -> List[Input]:
    """Many small n=2 generated scenarios restricted to the sample-point checks."""
    rng = random.Random(seed)
    inputs = [
        _generated(workdir, rng, structure, 2, d, degree, checks=POINTWISE_CHECKS)
        for d in (1, 2, 3)
        for degree in (2, 3, 4)
        for structure in (0, 1)
    ]
    inputs += [
        _bundled(workdir, "square-order1", checks=POINTWISE_CHECKS),
        _bundled(workdir, "covariance-quadratic", checks=POINTWISE_CHECKS),
        _bundled(workdir, "symmetric-contraction", checks=POINTWISE_CHECKS),
        _bundled(workdir, "failing-tolerance", exit_code=1),
        _bundled(workdir, "malformed", exit_code=2),
    ]
    return inputs


def curved_analytic(seed: int, workdir: Path) -> List[Input]:
    """Patched bodies with analytic fields and mixed transversals, plus the closed disk."""
    rng = random.Random(seed)
    inputs = []
    # Three draws of each cheap n=2 case put the median run time inside one
    # group of like runs rather than on the edge between two.
    for n, q, copy in [(2, q, c) for q in (8, 10) for c in range(3)] + [(3, 8, 0), (3, 10, 0)]:
        doc = curved_scenario(rng, n, q)
        name = f"{doc['name']}-{copy}"
        path = _write(workdir, name, json.dumps(doc, sort_keys=True, indent=2) + "\n")
        inputs.append(Input(name, path, (), 0, {c: True for c in doc["checks"]}))
    inputs.append(_bundled(workdir, "disk-closed"))
    return inputs


WORKLOADS: Dict[str, Callable[[int, Path], List[Input]]] = {
    "quad-poly": quad_poly,
    "pointwise-n2": pointwise_n2,
    "curved-analytic": curved_analytic,
}
