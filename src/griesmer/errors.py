"""Exception hierarchy.

Two families matter to callers: InputError covers invalid parameters,
unreadable files, and violated preconditions on user-supplied data (the
CLI exits 2); VerificationFailure covers computed results that contradict
a value the library is supposed to certify, which always signals a bug
rather than bad input (the CLI exits 1).
"""


class GriesmerError(Exception):
    pass


class InputError(GriesmerError):
    pass


class VerificationFailure(GriesmerError):
    pass


class NotAPrimePower(InputError):
    pass


class TooLarge(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class NotFullRank(InputError):
    pass


class ZeroColumn(InputError):
    pass


class ArcConditionViolated(InputError):
    pass


class OutOfScope(InputError):
    pass


class DivisibilityViolated(InputError):
    pass


class NoZeroPoint(InputError):
    pass


class IntersectionNonempty(InputError):
    pass


class FlatNotInSupport(InputError):
    pass


class PointNotInSupport(InputError):
    pass


class DistanceTooSmall(InputError):
    pass


class NotEnoughLines(InputError):
    pass


class FileFormatError(InputError):
    pass


class ConfigDegenerate(VerificationFailure):
    pass


class SpectrumMismatch(VerificationFailure):
    pass


class ParamMismatch(VerificationFailure):
    pass


class PlanInfeasible(VerificationFailure):
    pass


class CertificationFailed(VerificationFailure):
    pass
