"""The benchmark's workloads and the verdict each command must reach.

Every workload is a list of CLI commands run in one process, on inputs made
from the benchmark seed.  One request is the whole list at one CLI seed; a
cycle is the workload's fixed set of requests.  Sizes are the CLI defaults
(20 trajectories, 100 points, t_end 5) except where a workload says
otherwise: lc-demo:m3n4 at the defaults takes about 30 s per request on a
2-CPU host, so it runs 8 trajectories, which keeps its cycle near the
others' 14 s.
"""

from __future__ import annotations

from dataclasses import dataclass

ELLIPSOID = "ellipsoid:1,2,3"
M3N4 = "lc-demo:m3n4"
PERTURBED = "falsify:perturbed-lc"
CONFORMAL = "falsify:random-conformal"


@dataclass(frozen=True)
class Command:
    command: str  # verify, factory or geodesic
    pair: str
    equivalent: bool  # the pair shares its geodesics; False for the falsify: controls
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    requests_per_cycle: int = 1

    @property
    def pairs(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(c.pair for c in self.commands))

    def cli_seeds(self, seed: int) -> list[int]:
        """CLI seeds of one cycle; seed 0 starts at CLI seed 0."""
        k = self.requests_per_cycle
        return [seed * k + i for i in range(k)]


def _all_three(pair: str, args: tuple[str, ...] = ()) -> tuple[Command, ...]:
    return tuple(Command(c, pair, True, args) for c in ("verify", "factory", "geodesic"))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "ellipsoid",
        "the only pair with a chart domain: every geodesic exits it, so exit events "
        "and per-sample domain checks dominate; cheap entries, 4x4 Pfaffians",
        _all_three(ELLIPSOID),
    ),
    Workload(
        "m3n4",
        "4-D normal form with shared entry products and no domain: dual-number "
        "entry evaluation dominates the RHS and forms; 8x8 Pfaffians",
        _all_three(M3N4, ("--trajectories", "8")),
    ),
    Workload(
        "wide",
        "verify at 20000 points and 1 trajectory: the N-point batched path, where "
        "object-array matops and sampling dominate and per-point RHS cost is negligible",
        (Command("verify", M3N4, True, ("--points", "20000", "--trajectories", "1")),),
        requests_per_cycle=2,
    ),
    Workload(
        "controls",
        "negative controls that must keep failing: far-apart curves take the exact "
        "curve-distance pass and the coincidence search re-integrates gbar",
        (Command("verify", PERTURBED, False), Command("factory", PERTURBED, False),
         Command("geodesic", CONFORMAL, False)),
    ),
)}

# what a control must report as violated, per command
REQUIRED_VIOLATION = {"verify": "conservation", "factory": "factory-conservation"}
COINCIDE_MAX = 1e-5  # curve_distance_max of an equivalent pair
APART_MIN = 1e-2  # curve_distance_max of random-conformal


def gate(cmd: Command, code: int, report: dict) -> list[str]:
    """Problems with one command's outcome; empty when it reached the
    verdict its pair must reach."""
    problems = []
    if cmd.command == "geodesic":
        if code != 0:
            problems.append(f"exit {code}, expected 0")
        dist = report.get("curve_distance_max")
        if not isinstance(dist, float):
            problems.append("no curve_distance_max")
        elif cmd.equivalent and not dist <= COINCIDE_MAX:
            problems.append(f"curve_distance_max {dist:.3g} > {COINCIDE_MAX:g}")
        elif not cmd.equivalent and not dist > APART_MIN:
            problems.append(f"curve_distance_max {dist:.3g} <= {APART_MIN:g}")
        return problems
    violations = report.get("violations")
    if cmd.equivalent:
        if code != 0:
            problems.append(f"exit {code}, expected 0")
        if report.get("pass") is not True or violations:
            problems.append(f"violations {violations}")
        failed = [c.get("name") for c in report.get("checks", []) if c.get("pass") is not True]
        if failed:
            problems.append(f"failed checks {failed}")
    else:
        if code != 1:
            problems.append(f"exit {code}, expected 1")
        need = REQUIRED_VIOLATION[cmd.command]
        if not isinstance(violations, list) or need not in violations:
            problems.append(f"{need!r} not among violations {violations}")
    return problems
