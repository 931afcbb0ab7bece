"""Exception hierarchy shared by all modules.

Every error carries a stable machine-readable ``code`` and the CLI exit
category it maps to: 2 input/file errors, 3 validation errors, 4 numeric
failures.
"""


class ShdhError(Exception):
    code = "ERROR"
    exit_code = 1


class InputError(ShdhError):
    """Problems locating, reading, or parsing input files and references."""

    exit_code = 2


class ValidationError(ShdhError):
    """Mutually inconsistent or out-of-contract arguments."""

    exit_code = 3


class NumericError(ShdhError):
    """Non-finite values in data or during optimization."""

    exit_code = 4


# --- taxonomy parsing / lookup ---------------------------------------------

class EmptyInput(InputError):
    code = "EMPTY_INPUT"


class DuplicateEdge(InputError):
    code = "DUPLICATE_EDGE"


class CycleDetected(InputError):
    code = "CYCLE_DETECTED"


class MultipleRoots(InputError):
    code = "MULTIPLE_ROOTS"


class RaggedLeafDepth(InputError):
    code = "RAGGED_LEAF_DEPTH"


class UnknownLabel(InputError):
    code = "UNKNOWN_LABEL"


class HeightTooSmall(ValidationError):
    code = "HEIGHT_TOO_SMALL"


# --- code layout / model ----------------------------------------------------

class CodeTooShort(ValidationError):
    code = "CODE_TOO_SHORT"


class ShapeMismatch(ValidationError):
    code = "SHAPE_MISMATCH"


class ModelFeatureDimMismatch(ShapeMismatch):
    code = "MODEL_FEATURE_DIM_MISMATCH"


class NonFiniteInput(NumericError):
    code = "NON_FINITE_INPUT"


# --- training ----------------------------------------------------------------

class NonFiniteGradient(NumericError):
    code = "NON_FINITE_GRADIENT"


class EmptyDataset(InputError):
    code = "EMPTY_DATASET"


class SimilarityCapExceeded(ValidationError):
    code = "SIMILARITY_CAP_EXCEEDED"


# --- index -------------------------------------------------------------------

class LayoutMismatch(ValidationError):
    code = "LAYOUT_MISMATCH"


class EmptyDatabase(InputError):
    code = "EMPTY_DATABASE"


class UnknownQueryId(InputError):
    code = "UNKNOWN_QUERY_ID"


# --- metrics -----------------------------------------------------------------

class RankTooLarge(ValidationError):
    code = "RANK_TOO_LARGE"


# --- command line ------------------------------------------------------------

class InvalidNumber(ValidationError):
    code = "INVALID_NUMBER"


# --- files -------------------------------------------------------------------

class FileNotFound(InputError):
    code = "FILE_NOT_FOUND"


class FileFormatError(InputError):
    code = "BAD_FILE_FORMAT"
