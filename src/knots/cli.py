"""Command-line surface for the knots package.

Four commands: ``compute`` evaluates invariants of a code or catalog
name, ``fuzz`` checks invariance under random Reidemeister walks,
``geom`` runs the linked-triangles and seven-point geometric checks,
and ``catalog`` dumps the shipped diagrams.

Exit codes: 0 success, 1 property failure, 2 parse error, 3 domain
error, 4 geometric degeneracy.  ``--format json`` switches every
command to machine output with the documented keys (``name``,
``code``, ``invariants``, ``witness``, ``parity``).
"""

import functools
import json
import random
import sys

import click

from . import catalog as _catalog
from .arf_casson import arf, casson
from .codes import from_text, to_text
from .colorings import count_colorings
from .conway import conway
from .errors import DegeneracyError, DomainError, ParseError, UnknownNameError
from .linking import lk, lk2
from .moves import WalkPlan, random_walk
from .spatial import verify_seven_points, verify_six_points


def _guarded(fn):
    """Map package errors to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParseError as exc:
            _bail(exc, 2)
        except DegeneracyError as exc:
            _bail(exc, 4)
        except DomainError as exc:
            _bail(exc, 3)

    return wrapper


def _bail(exc, code):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _resolve(text):
    """Catalog name or literal Gauss code -> (name, diagram)."""
    try:
        entry = _catalog.lookup(text)
        return entry.name, entry.diagram
    except UnknownNameError:
        pass
    try:
        return None, from_text(text)
    except ParseError:
        # A bare word is most likely a mistyped catalog name.
        if any(ch in text for ch in " ;()"):
            raise
        raise UnknownNameError(f"no catalog entry named {text!r}") from None


def _matrix(fn, d):
    n = d.n_components
    return [[fn(d, i, j) if i != j else 0 for j in range(n)] for i in range(n)]


def _conway(d):
    p = conway(d)
    return {"coeffs": list(p.coeffs), "text": str(p)}


def _colorings(d):
    return {str(c.p): [c.total, c.proper] for c in (count_colorings(d, p) for p in (3, 5))}


# Every invariant the CLI computes, in the order that ``--inv`` lists them.
_INVARIANTS = {
    "conway": _conway,
    "casson": casson,
    "arf": arf,
    "lk2": functools.partial(_matrix, lk2),
    "lk": functools.partial(_matrix, lk),
    "colorings": _colorings,
}

_inv_option = click.option(
    "--inv",
    "-i",
    "invariants",
    multiple=True,
    type=click.Choice(tuple(_INVARIANTS) + ("c2",), case_sensitive=False),
    help="Invariant to compute (repeatable; default: all applicable).",
)
_format_option = click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")


def _suite(d, requested=()):
    if requested:
        names = ["casson" if r == "c2" else r for r in requested]
    elif d.n_components == 1:
        names = ["conway", "casson", "arf", "colorings"]
    else:
        names = ["conway", "lk2", "lk", "colorings"]
    return {name: _INVARIANTS[name](d) for name in names}


def _show_invariants(values, indent=""):
    for name, val in values.items():
        if name == "conway":
            val = val["text"]
        elif name == "colorings":
            val = "; ".join(
                f"p={p} total {t} proper {pr}" for p, (t, pr) in val.items()
            )
        click.echo(f"{indent}{name:<10s} {val}")


@click.group()
def main():
    """Knot and link diagram invariants from signed Gauss codes."""


@main.command()
@click.argument("input")
@_inv_option
@_format_option
@_guarded
def compute(input, invariants, fmt):
    """Compute invariants of a Gauss code or catalog name."""
    name, d = _resolve(input)
    values = _suite(d, invariants)
    report = {"name": name, "code": to_text(d), "invariants": values}
    if fmt == "json":
        click.echo(json.dumps(report, indent=2))
        return
    if name:
        click.echo(f"{'name':<10s} {name}")
    click.echo(f"{'code':<10s} {report['code']}")
    _show_invariants(values)


@main.command()
@click.argument("input")
@click.option("--steps", default=200, show_default=True)
@click.option("--seed", default=0, show_default=True)
@_inv_option
@_format_option
@_guarded
def fuzz(input, steps, seed, invariants, fmt):
    """Random Reidemeister walk; fail if any invariant drifts."""
    name, d = _resolve(input)
    before = _suite(d, invariants)
    walked = random_walk(d, WalkPlan(seed=seed, steps=steps))
    after = _suite(walked, invariants)
    mismatches = [k for k in before if before[k] != after[k]]
    report = {
        "name": name,
        "code": to_text(d),
        "steps": steps,
        "seed": seed,
        "end_crossings": walked.n_crossings,
        "invariants": before,
        "mismatches": mismatches,
        "pass": not mismatches,
    }
    if fmt == "json":
        click.echo(json.dumps(report, indent=2))
    else:
        label = name or report["code"]
        click.echo(
            f"fuzz {label}: {steps} steps, seed {seed}, "
            f"{d.n_crossings} -> {walked.n_crossings} crossings"
        )
        _show_invariants(before, indent="  ")
        click.echo("PASS" if not mismatches else f"FAIL: changed {mismatches}")
    if mismatches:
        sys.exit(1)


def _load_points(path):
    """Every point of the JSON list in ``path``; the command checks them.
    Bytes that are no JSON text (in UTF-8, -16 or -32) are a ``ParseError``."""
    try:
        with open(path, "rb") as f:
            pts = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not JSON: {exc}") from None
    if not isinstance(pts, list):
        raise ParseError(f"{path} holds no JSON list of points")
    return pts


def _point_sets(points_file, seed, trials, n):
    """(points, seed) per trial: the file's points once with ``seed``, or
    ``trials`` sets of n random points, each with its own derived seed."""
    if points_file:
        return [(_load_points(points_file), seed)]
    sets = []
    for s in (seed * 100003 + t for t in range(trials)):
        rng = random.Random(s)
        sets.append(([tuple(rng.uniform(-1.0, 1.0) for _ in range(3)) for _ in range(n)], s))
    return sets


@main.group()
def geom():
    """Geometric theorem checks on spatial point sets."""


@geom.command("linked-triangles")
@click.option("--points", "points_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", default=0, show_default=True)
@click.option("--trials", default=10, show_default=True, type=click.IntRange(min=1))
@_format_option
@_guarded
def linked_triangles(points_file, seed, trials, fmt):
    """Find a pair of linked triangles among six points."""
    results = []
    for t, (pts, _seed) in enumerate(_point_sets(points_file, seed, trials, 6)):
        witness = verify_six_points(pts)
        results.append({"trial": t, "witness": [list(half) for half in witness]})
    if fmt == "json":
        click.echo(json.dumps({"witness": results}, indent=2))
    else:
        for r in results:
            click.echo(f"trial {r['trial']}: witness {r['witness']}")
        click.echo(f"{len(results)} witnesses found")


@geom.command("k7")
@click.option("--points", "points_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", default=0, show_default=True)
@click.option("--trials", default=5, show_default=True, type=click.IntRange(min=1))
@_format_option
@_guarded
def k7(points_file, seed, trials, fmt):
    """Seven-point check: a cycle with Arf 1 exists; report the parity."""
    results = []
    for t, (pts, s) in enumerate(_point_sets(points_file, seed, trials, 7)):
        witness, parity = verify_seven_points(pts, seed=s)
        results.append(
            {
                "trial": t,
                "witness": list(witness) if witness else None,
                "parity": parity,
            }
        )
    if fmt == "json":
        click.echo(json.dumps({"witness": results, "parity": results[-1]["parity"]}, indent=2))
    else:
        for r in results:
            click.echo(f"trial {r['trial']}: witness {r['witness']} parity {r['parity']}")


@main.command("catalog")
@click.argument("name", required=False)
@_format_option
@_guarded
def catalog_cmd(name, fmt):
    """List catalog entries, or show one entry with its golden values."""
    entries = [_catalog.lookup(name)] if name else _catalog.all()
    if fmt == "json":
        payload = [
            {"name": e.name, "code": e.code, "invariants": dict(e.golden.items())}
            for e in entries
        ]
        click.echo(json.dumps(payload[0] if name else payload, indent=2))
        return
    for e in entries:
        d = e.diagram
        click.echo(
            f"{e.name:<12s} {d.n_crossings:>2d} crossings, "
            f"{d.n_components} component{'s' if d.n_components != 1 else ''}  {e.code}"
        )
        if name:
            for key, val in e.golden.items():
                click.echo(f"  {key:<10s} {val}")


if __name__ == "__main__":
    main()
