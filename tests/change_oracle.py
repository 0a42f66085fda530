"""The validating crossing change that ``codes.crossing_change`` replaced,
for tests only.

``crossing_change`` edits the parent's passes and signs in place of a
rebuild; this swaps the roles and signs of the changed crossings over
every pass and builds the result through ``Diagram``, which checks the
code again and finds its signs and pass locations from scratch.
"""

from knots import OVER, UNDER, Diagram, Pass


def crossing_change(diagram, *crossings):
    """``diagram`` with over and under exchanged at each of ``crossings``,
    rebuilt and checked as a new code."""
    swap, changed = {OVER: UNDER, UNDER: OVER}, set(crossings)
    return Diagram(
        tuple(
            tuple(
                Pass(p.crossing, swap[p.role], -p.sign) if p.crossing in changed else p
                for p in comp
            )
            for comp in diagram.components
        )
    )
