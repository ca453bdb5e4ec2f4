import re
from pathlib import Path

from backlim import beta_upper

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs_and_keeps_one_enclosure():
    # the README's python block exactly as written; beta_upper after it
    # reuses the tour's enclosure instead of computing a second one
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    scope: dict = {}
    exec(compile(tour, str(README), "exec"), scope)
    f, Q = scope["f"], scope["Q"]
    assert beta_upper(f, Q(0)) == scope["enc"].upper
    assert sum(key[0] == "salpha_enclosure" for key in f.memo) == 1
