"""Exception types shared across kronscale modules, and the line helpers
of the text parsers that raise ParseError: content lines, the fixed header
of the circuit and rankdec formats, integer fields and counted records."""


class KronscaleError(Exception):
    """Base class for all kronscale errors."""


class DivisionByZero(KronscaleError):
    pass


class FieldTooSmall(KronscaleError):
    pass


class UnassignedInput(KronscaleError):
    pass


class InputOutOfRange(KronscaleError):
    """An assigned input value is not a canonical field element."""


class SingleOutputRequired(KronscaleError):
    pass


class ParseError(KronscaleError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def content_lines(text: str) -> list:
    """(1-based line number, text) for every line that is not blank once
    its '#' comment is cut off."""
    lines = [(no, raw.split("#", 1)[0].strip())
             for no, raw in enumerate(text.splitlines(), start=1)]
    return [(no, line) for no, line in lines if line]


def parse_header(text: str, header: str) -> list:
    """The content lines of text, the first of which must hold the tokens
    of header: ParseError at that line when it does not, and without a
    line when the text has no content line."""
    lines = content_lines(text)
    if not lines or lines[0][1].split() != header.split():
        raise ParseError(f"expected {header!r} header", lines[0][0] if lines else None)
    return lines


def int_fields(tokens, what: str, lineno: int, counts=None) -> list:
    """The tokens as ints; ParseError('expected <what>') at lineno when one
    is not an integer, is negative (no format has a negative count, size
    or element) or, given `counts`, their number is not in it."""
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"expected {what}", lineno) from None
    if min(values, default=0) < 0 or counts is not None and len(values) not in counts:
        raise ParseError(f"expected {what}", lineno)
    return values


def records(lines, count: int, what: str) -> list:
    """The lines after the header lines[0], which must number `count`:
    ParseError at the first surplus line, or at the last when one is missing."""
    body = lines[1:]
    if len(body) != count:
        at = body[count][0] if len(body) > count else lines[-1][0]
        raise ParseError(f"expected {count} {what}, found {len(body)}", at)
    return body


class NotSkew(KronscaleError):
    pass


class TooLarge(KronscaleError):
    pass


class ShapeError(KronscaleError):
    pass


class TooManyClasses(KronscaleError):
    pass


class PartitionSizeError(KronscaleError):
    pass


class InternalError(KronscaleError):
    pass


class ProviderError(KronscaleError):
    pass


class DivisibilityError(KronscaleError):
    pass


class ParityError(KronscaleError):
    pass


class CharacteristicError(KronscaleError):
    pass


class BipartitenessError(KronscaleError):
    pass
