"""Seeded, bounded mutation fuzz of every file under models/: byte
replacements, deletions and insertions of XML-significant tokens, run
through parse, numbering, the graph pipeline and the independent-coordinate
check.  Malformed input may only ever raise a UrdfPlusError."""

import random
from pathlib import Path

from urdfplus.constraints import independent_coordinate_check
from urdfplus.errors import UrdfPlusError
from urdfplus.graphs import build_pipeline
from urdfplus.model import regular_numbering
from urdfplus.xmlio import parse_urdf_plus

MODELS = sorted((Path(__file__).resolve().parent.parent / "models").rglob("*.urdf"))
INSERTS = (b"<", b">", b"/>", b'"', b"\0", b"nan", b"\xff")
MUTANTS = 3000
SEED = 20240


def mutate(rng: random.Random, source: bytes) -> bytes:
    data = bytearray(source)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data))
        kind = rng.randrange(3)
        if kind == 0:
            data[at] = rng.randrange(256)
        elif kind == 1:
            del data[at : at + rng.randint(1, 8)]
        else:
            data[at:at] = rng.choice(INSERTS)
    return bytes(data)


def test_only_urdfplus_errors_escape():
    rng = random.Random(SEED)
    sources = [path.read_bytes() for path in MODELS]
    parsed = 0
    for i in range(MUTANTS):
        data = mutate(rng, rng.choice(sources))
        try:
            model = parse_urdf_plus(data).model
            parsed += 1
            numbered = regular_numbering(model)
            graph, _, _, lacg = build_pipeline(numbered)
            independent_coordinate_check(numbered, graph, lacg)
        except UrdfPlusError:
            pass
        except Exception as exc:
            raise AssertionError(f"mutant {i} raised {exc!r}: {data!r}") from exc
    # a fuzz whose mutants all fail to parse never reaches the later stages
    assert parsed >= MUTANTS // 20, parsed
