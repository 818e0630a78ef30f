"""RPL006 bad: loading native code around the kernels seam."""

import ctypes  # noqa: F401 - lint fixture snippet
import ctypes.util  # noqa: F401 - lint fixture snippet
from ctypes import CDLL  # noqa: F401 - lint fixture snippet
