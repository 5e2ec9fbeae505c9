import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from qualred.dsl import parse_game


def fixture_text(name: str) -> str:
    return resources.files("qualred").joinpath("fixtures", name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def load_game():
    cache = {}

    def load(name: str):
        if name not in cache:
            cache[name] = parse_game(fixture_text(name))
        return cache[name]

    return load


def fx1_style_text(n: int, m: int) -> str:
    """fx1 grown to n players and m pieces each: player i prefers (xi, 1]
    on each [k/m, (k+1)/m), and nothing at 1. Each map reads x_i only."""
    rows = [f'game "fx1-style-{n}-{m}"']
    rows += [f"space {j} = interval [0,1]" for j in range(1, n + 1)]
    for i in range(1, n + 1):
        rows.append(f"pref {i} piecewise:")
        rows += [f"  when x{i} in [{k}/{m},{k + 1}/{m}): (x{i}, 1]" for k in range(m)]
        rows.append(f"  when x{i} in {{1}}: empty")
    return "\n".join(rows) + "\n"
