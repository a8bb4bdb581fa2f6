"""The one domain-level exception of the package.

Every invalid mathematical input (a composite or too large modulus, a size
or parameter out of range, a malformed coefficient file, an unsatisfiable or
exhausted GAP search, a length-p table beyond its cap) raises `DomainError`
with a message that names the cause; the CLI prints that message and exits 2.
"""


class DomainError(ValueError):
    """Raised for an invalid mathematical input; the message names the cause."""
