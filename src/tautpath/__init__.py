"""Shortest homotopic paths in polygonal domains with holes.

The package computes, for a polyline in a multiply connected polygonal
domain, the unique shortest path among all paths deformable into it
while keeping the endpoints fixed. The main entry points are
:func:`tighten` (the pull-tight engine), :func:`homotopic` (deformability
test), :func:`certify_efficient` (independent optimality certificate)
and :func:`path_len` (a bounded length functional that still separates
shorter from longer).
"""

from .domain import (
    InvalidPath,
    Location,
    PolygonalDomain,
    Triangulation,
    TriangulationError,
    locate,
    signed_area2,
    triangulate,
    validate,
)
from .geom import GeomError, LineSpec, Pt, Segment, polyline_length, rat
from .homotopy import (
    CrossingWord,
    EndpointMismatch,
    PathPoly,
    Sleeve,
    SleevePath,
    WordError,
    build_sleeve,
    canonical_class_key,
    crossing_word,
    homotopic,
    reduce_word,
    validate_path,
    word_of,
)
from .pathlen import LenValue, len_compare, path_len
from .tighten import (
    CertificateSummary,
    ChordMismatch,
    Move,
    NonTerminating,
    TightenReport,
    certify_efficient,
    funnel_shortest,
    tighten,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateSummary",
    "ChordMismatch",
    "CrossingWord",
    "EndpointMismatch",
    "GeomError",
    "InvalidPath",
    "LenValue",
    "LineSpec",
    "Location",
    "Move",
    "NonTerminating",
    "PathPoly",
    "PolygonalDomain",
    "Pt",
    "Segment",
    "Sleeve",
    "SleevePath",
    "TightenReport",
    "Triangulation",
    "TriangulationError",
    "WordError",
    "build_sleeve",
    "canonical_class_key",
    "certify_efficient",
    "crossing_word",
    "funnel_shortest",
    "homotopic",
    "len_compare",
    "locate",
    "path_len",
    "polyline_length",
    "rat",
    "reduce_word",
    "signed_area2",
    "tighten",
    "triangulate",
    "validate",
    "validate_path",
    "word_of",
    "__version__",
]
