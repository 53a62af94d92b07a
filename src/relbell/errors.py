"""Exception types shared across the toolkit, and Frozen, the read-only base
of its validated classes."""


class BellToolkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(BellToolkitError):
    """Operands have incompatible dimensions."""


class NotHermitian(BellToolkitError):
    """A matrix required to be Hermitian is not."""


class NoConvergence(BellToolkitError):
    """The eigensolver exhausted its sweep budget (signals a kernel bug)."""


class DegenerateObservable(BellToolkitError):
    """The boosted-observable normalization denominator underflowed."""


class DomainRestriction(BellToolkitError):
    """Inputs left the restricted domain on which a closed form is valid."""


class DomainError(BellToolkitError):
    """A scalar parameter lies outside its admissible interval."""


class InvalidObservable(BellToolkitError):
    """An observable is not a valid two-outcome (+1/-1) spin measurement."""


class MissingSetting(BellToolkitError):
    """Shot records do not match the operator's setting combinations."""


class Frozen:
    """Base of the validated classes: each __init__ checks its input and
    stores it with object.__setattr__ in the __slots__ it names, and
    assigning or deleting an attribute afterwards raises AttributeError.
    repr shows the slots, and a pickle rebuilds the object through
    __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
