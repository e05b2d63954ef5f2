"""Exception types shared across the package."""


class TdcountError(Exception):
    pass


class ParseError(TdcountError):
    """Malformed textual input. Carries a 1-based position when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


class VariableTokenError(ParseError):
    """An uppercase-leading identifier; only ground atoms are accepted."""


class UnsupportedRuleError(ParseError):
    """An SModels rule type outside the supported subset."""

    def __init__(self, rule_type, line=None):
        self.rule_type = rule_type
        super().__init__(f"unsupported rule type {rule_type}", line=line)


class FormatError(ParseError):
    """A truncated or structurally broken SModels section."""


class HeaderMismatchError(ParseError):
    """DIMACS body disagrees with the declared header counts."""


class TooLargeError(TdcountError):
    """Instance exceeds a brute-force size guard."""


class ProjectionOutOfRangeError(TdcountError):
    """Projection set mentions an unknown atom or variable."""


class InvariantError(TdcountError):
    """An internal consistency check failed: a bug, not bad input."""


class BagMismatchError(TdcountError):
    """Join handler received tables whose bags differ."""


class HandlerFailureError(TdcountError):
    """A node handler raised; records which node was being processed."""

    def __init__(self, node_id, kind):
        self.node_id = node_id
        self.kind = kind
        super().__init__(f"handler failed at node {node_id} ({kind})")
