"""Dynamic value model for parsed documents.

The reference models documents as a row-oriented DOM enum ``Value``
(Null/Bool/Number(f64)/String/Array/Object/Datetime — reference:
crates/zparse/src/value.rs:10-26) with an insertion-order-preserving
``Object`` (value.rs:226).  In Python the natural zero-overhead mapping
is native types:

    Null      -> None
    Bool      -> bool
    Number    -> float            (numbers are f64 everywhere; i64 erased,
                                   value.rs:162-169)
    String    -> str
    Array     -> list
    Object    -> dict             (Python dicts preserve insertion order)
    Datetime  -> TomlDatetime     (small wrapper, 4 variants like
                                   value.rs:30-35)

Only TOML produces ``TomlDatetime``; all other formats use the first six.

The reference's Object/Array accessor surface (is_*/as_*/get/insert/
remove/keys/iter — value.rs:39-296) maps to Python's own isinstance /
dict / list operations and is deliberately not wrapped. One documented
divergence: the reference's ``Object::remove`` is IndexMap swap_remove
(order-CHANGING, value.rs:266-268); Python ``del d[k]`` preserves the
remaining order. Nothing in the reference's parse/convert pipeline
removes keys, so this is unobservable except to library users mutating
values — who get the saner Python semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Value = object  # docs alias: None | bool | float | str | list | dict | TomlDatetime

# Datetime variant tags (value.rs:30-35)
DT_OFFSET = "offset-datetime"
DT_LOCAL = "local-datetime"
DT_DATE = "local-date"
DT_TIME = "local-time"


@dataclass(frozen=True)
class TomlDatetime:
    """A TOML datetime literal kept as its canonical string rendering.

    ``variant`` is one of DT_OFFSET/DT_LOCAL/DT_DATE/DT_TIME; ``text`` is
    the normalized textual form (what the serializers emit).
    """

    variant: str
    text: str

    def __str__(self) -> str:
        return self.text


def values_equal(a: Value, b: Value, *, rel_tol: float = 1e-9, abs_tol: float = 1e-9) -> bool:
    """Deep equality with float tolerance, mirroring the reference's
    property-test comparator (tests/property_tests.rs:159-219): NaNs are
    equal to each other, floats compared with tolerance, key order
    ignored for equality but both sides must have the same key sets.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b if (isinstance(a, bool) and isinstance(b, bool)) else False
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, TomlDatetime) and isinstance(b, TomlDatetime):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a.keys()) != set(b.keys()):
            return False
        return all(values_equal(a[k], b[k]) for k in a)
    return False
