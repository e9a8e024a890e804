"""The one writer of every JSON file the package saves.

Campaign specs, checkpoints, job results, run summaries, the design
library and the ``repro.io`` files all go through
:func:`atomic_write_json`.  The module imports nothing from the
package, so any layer can use it without an import cycle.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Optional, Union


def atomic_write_json(
    path: Union[str, pathlib.Path],
    data: Any,
    indent: Optional[int] = None,
    sort_keys: bool = False,
) -> None:
    """Write ``data`` as JSON so a kill never leaves a torn file.

    Temp file + ``fsync`` + ``os.replace``: the target holds either the
    previous or the new document, and a failed write removes its temp
    file.  ``indent`` and ``sort_keys`` go to :func:`json.dump`; the
    file ends with a newline.
    """
    path = pathlib.Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=indent, sort_keys=sort_keys)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
