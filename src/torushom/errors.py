"""The two failures a job reports: `InputError` (unusable input, exit 2)
and `InvariantViolation` (a fault of the computation, exit 3).  Nothing
here imports from the package, so the command line names both without
compiling a layer."""


class InputError(ValueError):
    """Unusable input: malformed text, an invalid poset or characteristic
    map, an unmet hypothesis of a theorem, an unknown field or prime, or a
    bad command line."""


class InvariantViolation(ValueError):
    """An internal invariant failed (d∘d != 0, a non-functorial sheaf,
    factors whose shapes do not fit): a fault of the computation, not of
    its input."""
