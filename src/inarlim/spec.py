"""The JSON spec format of a model and its parts: one writer and one parser.

A class with a spec declares it once, as ``SPEC = (type tag, {spec key:
attribute})``, and its family (distribution, decay, offspring or model)
is named once on the family's base class.  The model is the one family
without a tag.  A field annotated ``tuple`` is written and read as a JSON
list; the keys in ``_PARTS`` hold nested components, and every other
value is a number that converts to a finite float.  An error names the
component's path in the model, as in ``offspring.laws[1].p``.
"""

from __future__ import annotations

import math

from .errors import ConfigError

__all__ = ["Spec", "from_spec"]

# family -> type tag (None for the model) -> class
_FAMILIES: dict = {}
# spec key -> family of the component(s) it holds
_PARTS = dict(immigration="distribution", laws="distribution", offspring="offspring", decay="decay")


class Spec:
    """Base class of everything with a JSON spec; see the module docstring."""

    SPEC: tuple

    def __init_subclass__(cls, family: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if family is not None:
            cls._spec_family = family
        if "SPEC" in vars(cls):
            _FAMILIES.setdefault(cls._spec_family, {})[cls.SPEC[0]] = cls

    def to_spec(self) -> dict:
        """The JSON object: the tag, then each key's value; a tuple as a list, a component nested."""
        tag, keys = self.SPEC
        head = {} if tag is None else {"type": tag}
        return head | {key: _written(getattr(self, attr)) for key, attr in keys.items()}


def _written(value):
    if isinstance(value, Spec):
        return value.to_spec()
    if isinstance(value, tuple):
        return [_written(v) for v in value]
    return value


def _finite(value) -> bool:
    """A JSON number that converts to a finite float; json reads Infinity and NaN as floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def from_spec(obj, family: str, path: str = ""):
    """Build a component of the family from its JSON object, checking every key and value.

    ``path`` is where the component sits in the model (empty for the
    object read); errors, the class's own ``ConfigError`` included, start
    with it.
    """
    at = f"{path}: " if path else ""
    if not isinstance(obj, dict):
        raise ConfigError(f"{at}{family} spec must be an object, got {type(obj).__name__}")
    classes = _FAMILIES[family]
    if None in classes:  # the model, the one untagged family
        cls, name, keys = classes[None], family, set(obj)
    else:
        if "type" not in obj:
            raise ConfigError(f"{at}{family} spec has no type")
        tag = obj["type"]
        if not isinstance(tag, str):
            raise ConfigError(f"{at}{family} type must be a string, got {tag!r}")
        if tag not in classes:
            raise ConfigError(f"{at}unknown {family} type {tag!r}, expected one of {sorted(classes)}")
        cls, name, keys = classes[tag], f"{tag} {family}", set(obj) - {"type"}
    declared = cls.SPEC[1]
    problems = [
        f"{which} keys {sorted(ks)}"
        for which, ks in (("unknown", keys - set(declared)), ("missing", set(declared) - keys))
        if ks
    ]
    if problems:
        raise ConfigError(f"{at}bad {name} spec: " + ", ".join(problems))
    values = {
        attr: _read(cls, f"{path}.{key}" if path else key, attr, obj[key], _PARTS.get(key))
        for key, attr in declared.items()
    }
    try:
        return cls(**values)
    except ConfigError as exc:
        if not path:
            raise
        raise ConfigError(f"{at}{exc}") from exc


def _read(cls, path: str, attr: str, value, part):
    """One checked spec value at ``path``, or a list of them for a tuple field.

    Each is a component of the family ``part``, if given, else a finite number.
    """
    if cls.__dataclass_fields__[attr].type in ("tuple", tuple):
        if not isinstance(value, list) or not (part or all(map(_finite, value))):
            what = "a list" if part else "a list of finite numbers"
            raise ConfigError(f"{path} must be {what}, got {value!r}")
        return [from_spec(v, part, f"{path}[{i}]") for i, v in enumerate(value)] if part else value
    if part:
        return from_spec(value, part, path)
    if not _finite(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return value
