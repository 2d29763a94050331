"""Suite-wide set-up.

On a failing property, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to suggest an explicit example. That pulls in
libcst, whose import emits a third-party DeprecationWarning
(``mypy_extensions.TypedDict``) which ``filterwarnings = ["error"]`` would
turn into an INTERNALERROR instead of a plain failure report. Importing the
module once here, with only DeprecationWarning ignored and only around this
import, keeps every other warning, femin's included, an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional for hypothesis
        pass
