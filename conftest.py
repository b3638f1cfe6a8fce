"""Make a bare ``python -m pytest`` import the package from ``src``.

``src`` is appended, not prepended, so a ``PYTHONPATH`` that points at
another source tree still decides which code is tested.
"""

import os
import sys

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "src"))
