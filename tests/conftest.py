import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from ncupper.algebra import AlgebraSpec, GeneratorSpec, Letter, Word

# Hypothesis draws the same examples on every run and replays none from a
# local database, so a test's verdict depends only on the code under test.
# Loaded here, before the test modules build their own @settings from it.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def herm_algebra():
    """Two hermitian-unitary generators, one tensor factor."""
    return AlgebraSpec((GeneratorSpec("b1", "hermitian-unitary", 0),
                        GeneratorSpec("b2", "hermitian-unitary", 0)))


@pytest.fixture
def unitary_algebra():
    """Two unitary generators, one tensor factor."""
    return AlgebraSpec((GeneratorSpec("u1", "unitary", 0),
                        GeneratorSpec("u2", "unitary", 0)))


@pytest.fixture
def bipartite_algebra():
    """The CHSH-style algebra: two hermitian-unitary generators per factor."""
    return AlgebraSpec((GeneratorSpec("b1", "hermitian-unitary", 0),
                        GeneratorSpec("b2", "hermitian-unitary", 0),
                        GeneratorSpec("c1", "hermitian-unitary", 1),
                        GeneratorSpec("c2", "hermitian-unitary", 1)))


def random_word(rng: random.Random, algebra: AlgebraSpec, max_len: int) -> Word:
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        g = rng.choice(algebra.generators)
        star = rng.random() < 0.5 and g.kind != "hermitian-unitary"
        letters.append(Letter(g.id, star))
    return Word(tuple(letters))


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env_extra=None, cwd=None):
    """Run the checked-out ncupper CLI in a child interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "ncupper.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)
