"""Instance-file loading and point serialization.

Two document kinds are accepted:

finite space with lookup-table map::

    {"kind": "finite",
     "points": ["x1", "x2"],
     "distance": [["0", "1"], ["1", "0"]],
     "map": {"x1": "x2", "x2": "x1"}}

Distance entries may be decimal strings, "p/q" rational strings, or plain
JSON numbers.

sequence-space family with the shift map::

    {"kind": "gallery", "id": "example_2_3", "params": {"a": 0, "b": 1}}

``instance_from_dict`` checks a document's shape and its distance-entry syntax
(``InstanceFormatError``); ``SequenceSpace`` and ``FiniteSpace`` check the values.
"""

from __future__ import annotations

import json
from typing import Tuple

from .errors import InstanceFormatError
from .maps import MapModel, ShiftMap, TableMap
from .spaces import FiniteSpace, SequenceSpace, SpaceModel

__all__ = ["instance_from_dict", "load_instance", "point_json"]


def _finite_from_dict(doc: dict) -> Tuple[FiniteSpace, TableMap]:
    try:
        labels = doc["points"]
        rows = doc["distance"]
        mapping = doc["map"]
    except KeyError as missing:
        raise InstanceFormatError(f"finite instance lacks field {missing}") from None
    # labels name the map's keys, which JSON makes strings; a row or matrix
    # that is no list would be read by its characters or keys
    if not (isinstance(labels, list) and all(isinstance(p, str) for p in labels)
            and isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and isinstance(mapping, dict)):
        raise InstanceFormatError(
            "finite instance needs 'points' as a list of strings, 'distance' as a "
            "list of lists and 'map' as an object from label to image"
        )
    try:
        space = FiniteSpace.from_rows(labels, rows)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"bad distance entry: {exc}") from None
    images = [None] * space.size
    for src, dst in mapping.items():
        images[space.point_named(src)] = space.point_named(dst)
    for i, img in enumerate(images):
        if img is None:
            raise InstanceFormatError(f"map gives no image for {labels[i]!r}")
    return space, TableMap(space, tuple(images))


def _gallery_from_dict(doc: dict) -> Tuple[SequenceSpace, ShiftMap]:
    params = doc.get("params")
    if not (isinstance(params, dict) and "a" in params and "b" in params):
        raise InstanceFormatError("gallery instance needs 'params' as an object with a and b")
    space = SequenceSpace(doc.get("id"), params["a"], params["b"])
    return space, ShiftMap(space)


def instance_from_dict(doc: dict) -> Tuple[SpaceModel, MapModel]:
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    kind = doc.get("kind")
    if kind == "finite":
        return _finite_from_dict(doc)
    if kind == "gallery":
        return _gallery_from_dict(doc)
    raise InstanceFormatError(f"unknown instance kind {kind!r}")


def load_instance(path) -> Tuple[SpaceModel, MapModel]:
    """Read and build an instance from a JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, a long integer, deep nesting
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from None
    return instance_from_dict(doc)


def point_json(space: SpaceModel, point):
    """JSON form of a point: label string (finite) or name+coordinate."""
    if isinstance(space, FiniteSpace):
        return space.labels[point]
    coord = space.coord(point)  # rejects anything that is not a point of space
    return {"name": point.name, "coord": coord}
