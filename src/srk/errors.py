"""Exception types used across the package."""


class SrkError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SrkError, ValueError):
    """Some user-supplied index, diagram, or file failed validation."""


# --- Schubert index validation -------------------------------------------

class NotStrictlyIncreasing(ValidationError):
    pass


class OutOfBounds(ValidationError):
    pass


# The orthogonal-side validators group all range errors under this name.
Bounds = OutOfBounds


class BadArity(ValidationError):
    pass


class NoIsotropicRoom(ValidationError):
    """n < 2k, so no isotropic k-plane exists."""


class BadPrime(ValidationError):
    """Prime marker used where the two-family convention does not apply."""


class SplitsIntoTwo(ValidationError):
    """An index with a_i = b_j + 1 names a union of two Schubert varieties.

    Carries the 1-based positions (i, j) of the offending pair and the two
    replacement indices as a diagnostic: ``split_pair = ((a1, b1), (a2, b2))``
    where the first lowers a_i and the second raises b_j.
    """

    def __init__(self, i, j, split_pair):
        self.i = i
        self.j = j
        self.split_pair = split_pair
        super().__init__(f"a_{i} = b_{j} + 1; the locus splits into {split_pair}")


class PositionOutOfRange(ValidationError):
    pass


# --- quadric diagrams ------------------------------------------------------

class InvalidDiagram(ValidationError):
    """A quadric diagram violated a structural invariant."""


class DiagramSyntaxError(ValidationError):
    """Unparseable diagram text; ``position`` is the 0-based character index."""

    def __init__(self, position, msg):
        self.position = position
        super().__init__(f"at {position}: {msg}")


class InconsistentDigits(ValidationError):
    """Digit string does not encode a valid nondecreasing corank profile."""


class MarkerMisplaced(ValidationError):
    """A ]' marker appears somewhere other than position m/2."""


class NotSchubertDiagram(ValidationError):
    """Diagram has a quadric with d_j + r_j != n, so it is not a Schubert one."""


# --- degeneration engine ---------------------------------------------------

class AlreadyTerminal(SrkError):
    """kappa/step called on a diagram that is terminal for the active mode."""


class NotAdmissible(ValidationError):
    """A degeneration entry was given an inadmissible diagram.

    ``report`` is the ``check_conditions`` report when one of the conditions
    it checks failed, so ``report.failed()`` names them.  It is None when the
    diagram passes those conditions but does not fit its ambient: a bracket
    past the isotropic bound, or a quadric with d + r above the ambient.
    """

    def __init__(self, msg, report=None):
        self.report = report
        super().__init__(msg)


class DepthExceeded(SrkError):
    """Cycle guard: a derivation path got longer than any valid derivation."""


class EngineInvariantError(SrkError):
    """An internal invariant of the degeneration engine failed."""


# --- searches and catalogs -------------------------------------------------

class SearchBudgetExceeded(SrkError):
    """Witness enumeration hit its configured cap before finishing."""


class CatalogIOError(SrkError):
    """A catalog file could not be opened, read or written; the message names
    the path and the operating system's reason."""


class SchemaError(ValidationError):
    """A catalog line failed to parse; ``line`` is the 1-based line number."""

    def __init__(self, line, msg):
        self.line = line
        super().__init__(f"line {line}: {msg}")
