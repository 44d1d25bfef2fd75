import os
from pathlib import Path

import numpy as np
import pytest

from tablelink.corpus import RelationSchema, TupleRecord

ROOT = Path(__file__).resolve().parent.parent


def subprocess_env():
    """os.environ with src/ on PYTHONPATH, so a child interpreter imports tablelink."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


# Two WebNLG building entries used as parser fixtures.
PUBLIC_SQUARE_ENTRY = """
<entry size="3" eid="Id24" category="Building">
  <modifiedtripleset>
    <mtriple>200_Public_Square | floorCount | 45</mtriple>
    <mtriple>
      200_Public_Square | location | "Cleveland, Ohio 44114"
    </mtriple>
    <mtriple>200_Public_Square | completionDate | 1985</mtriple>
  </modifiedtripleset>
  <lex lid="Id3" comment="good">
    200 Public Square, completed in 1985, has 45 floors and is
    located in Cleveland, Ohio 44114.
  </lex>
</entry>
"""

COLMORE_ROW_ENTRY = """
<entry size="5" eid="Id1" category="Building">
  <modifiedtripleset>
    <mtriple>103_Colmore_Row | floorCount | 23</mtriple>
    <mtriple>103_Colmore_Row | completionDate | 1976</mtriple>
    <mtriple>103_Colmore_Row | architect | John_Madin</mtriple>
    <mtriple>
      103_Colmore_Row | location |
      "Colmore Row, Birmingham, England"
    </mtriple>
    <mtriple>John_Madin | birthPlace | Birmingham</mtriple>
  </modifiedtripleset>
  <lex lid="Id1" comment="good">
    103 Colmore Row is located on Colmore Row, Birmingham,
    England. It was designed by the architect, John Madin,
    who was born in Birmingham. It has 23 floors and was
    completed in 1976.
  </lex>
</entry>
"""


@pytest.fixture
def building_entries_xml():
    return (
        "<benchmark><entries>"
        + PUBLIC_SQUARE_ENTRY
        + COLMORE_ROW_ENTRY
        + "</entries></benchmark>"
    )


@pytest.fixture
def org_schema():
    return RelationSchema(
        name="Organization",
        attributes=(("name", "text"), ("sector", "categorical"), ("founded", "numeric")),
    )


def make_record(schema, key, **values):
    return TupleRecord(relation=schema.name, key=key, entity=key, values=values)


@pytest.fixture
def org_tuples(org_schema):
    return [
        make_record(org_schema, "IBM", name="IBM", sector="tech", founded=1911.0),
        make_record(org_schema, "HP", name="HP", sector="tech", founded=1939.0),
        make_record(org_schema, "HP Inc.", name="HP Inc.", sector="tech", founded=2015.0),
    ]


def random_unit_vectors(rng, count, dim):
    x = rng.normal(size=(count, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)
