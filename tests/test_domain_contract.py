"""The identity report's domain contract over a fixed (n, s) grid.

Every point either answers within roundoff of the six closed-form ratio
identities or refuses with a typed NumericalError that names kappa: a
kappa that overflows a float, or a kappa**2 (kappa**2*(s)) that does,
carried by the moment integrands.  pytest turns numpy's RuntimeWarnings
into errors (pyproject.toml), so a run that answers passes no silent
overflow either.  ROADMAP item 6's amplitude-free core turns refusals into
answers; this file then grows the CLI runs and the scaling properties it
names.
"""

from hsbubble.errors import NumericalError
from hsbubble.moments import identity_report
from hsbubble.params import HSParams

DIMS = tuple(range(7, 21)) + (24, 30, 40, 60)
EXPONENTS = (0.0, 0.01, 0.5, 1.0, 1.5, 1.7, 1.8, 1.9, 1.95, 1.99)


def test_identity_report_answers_at_roundoff_or_names_kappa():
    answered, refused = [], []
    for n in DIMS:
        for s in EXPONENTS:
            try:
                report = identity_report(HSParams(n, s))
            except NumericalError as exc:
                assert "kappa" in str(exc), (n, s, str(exc))
                refused.append((n, s))
                continue
            worst = max(r["rel_residual"] for r in report.ratios.values())
            # 1.2e-12 at (7, 1.95), the worst point
            assert worst <= 2e-12, (n, s, worst)
            answered.append((n, s))
    # 137 of the 180 points answer; a refusal that replaced an answer
    # would be a regression, however it is worded
    assert len(answered) >= 137, refused
