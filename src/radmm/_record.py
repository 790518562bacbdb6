"""Plain record classes: a repr of their fields, and read-only records.

A record is an ordinary class whose `__init__` is written out; nothing here
generates code. Its fields are its public attributes, in the order its
`__init__` sets them; attributes named with a leading underscore are derived
state, left out of the repr.
"""


class Record:
    """A record whose repr lists its fields."""

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_"))
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """A read-only record: `__init__` sets every attribute at once through
    `self.__dict__.update(...)`, and any later assignment or deletion raises
    AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")
