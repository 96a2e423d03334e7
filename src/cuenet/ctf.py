"""Binary tensor file format.

Layout, all integers little-endian:

* 4-byte magic ``CTF1``
* 1 byte precision flag: 0 = single (float32), 1 = double (float64)
* 1 byte rank
* rank u32 extents
* payload: row-major IEEE-754 elements, little-endian

Rank 0 is legal and carries exactly one element.  Readers validate the magic,
the flag, and that the payload length matches the extents exactly.

:func:`tensor_from_bytes` decodes without copying where it can: on a
little-endian host the result is a read-only view of the caller's buffer,
which may sit at any byte offset (a clip's payload starts 22 bytes into its
blob).  A big-endian host gets a native-order copy, read-only as well.
:func:`read_tensor` returns a writable array of its own.
"""

import struct

import numpy as np

from .errors import FormatError
from .tensor import DTYPES, check_tensor, precision_of

MAGIC = b"CTF1"
# The precision flag of tensor files, also used by weight containers.
FLAG_OF = {"single": 0, "double": 1}
PRECISION_OF_FLAG = {flag: name for name, flag in FLAG_OF.items()}
_DTYPE_OF_FLAG = {flag: np.dtype(DTYPES[name]).newbyteorder("<")
                  for name, flag in FLAG_OF.items()}


def tensor_bytes(array):
    """Serialize an array to the canonical byte layout."""
    check_tensor(array, name="tensor file payload")
    flag = FLAG_OF[precision_of(array)]
    header = MAGIC + struct.pack("<BB", flag, array.ndim)
    header += struct.pack(f"<{array.ndim}I", *array.shape)
    payload = np.ascontiguousarray(array, dtype=_DTYPE_OF_FLAG[flag]).tobytes()
    return header + payload


def tensor_from_bytes(buffer, offset=0):
    """Parse one tensor at ``offset``; returns (array, end_offset).

    The array is read-only.  When the payload's byte order is the host's
    it is a view of ``buffer`` (which it keeps alive), possibly misaligned;
    otherwise it is a native-order copy.  Callers that write, or that keep
    the array longer than the buffer should live, copy it.
    """
    view = memoryview(buffer)
    if len(view) - offset < 6:
        raise FormatError("tensor header truncated")
    if bytes(view[offset:offset + 4]) != MAGIC:
        raise FormatError(f"bad tensor magic "
                          f"{bytes(view[offset:offset + 4])!r}")
    flag, rank = struct.unpack_from("<BB", view, offset + 4)
    if flag not in _DTYPE_OF_FLAG:
        raise FormatError(f"unknown precision flag {flag}")
    pos = offset + 6
    if len(view) - pos < 4 * rank:
        raise FormatError("tensor extents truncated")
    shape = struct.unpack_from(f"<{rank}I", view, pos)
    pos += 4 * rank
    dtype = _DTYPE_OF_FLAG[flag]
    count = 1
    for extent in shape:
        count *= extent
    nbytes = count * dtype.itemsize
    if len(view) - pos < nbytes:
        raise FormatError(f"tensor payload truncated: need {nbytes} bytes, "
                          f"have {len(view) - pos}")
    array = np.frombuffer(view[pos:pos + nbytes], dtype=dtype)
    try:
        array = array.reshape(shape)
    except ValueError as exc:  # too many axes, or an empty array too big
        raise FormatError(f"unrepresentable tensor extents: {exc}") from None
    array = array.astype(dtype.newbyteorder("="), copy=False)
    array.flags.writeable = False
    return array, pos + nbytes


def write_tensor(path, array):
    """Write one tensor to ``path``."""
    data = tensor_bytes(array)
    with open(path, "wb") as fh:
        fh.write(data)


def read_tensor(path):
    """Read one tensor from ``path`` into a writable, aligned array of its
    own; trailing bytes are rejected."""
    with open(path, "rb") as fh:
        data = fh.read()
    array, end = tensor_from_bytes(data)
    if end != len(data):
        raise FormatError(f"{len(data) - end} trailing bytes after tensor "
                          f"payload")
    return array.copy()
