"""Interpreter (script-level) backtraces.

Paper §4.4 adapts each interpreter's backtrace code to run in the
kernel (11 lines for PHP, 59 for Bash), because for interpreted
programs the *binary* entrypoint is always the same opcode handler —
`/usr/bin/php5` + ``0x27ad2c`` fires for **every** include in **every**
script.  Script-level frames let rules distinguish the scripts and
lines actually requesting the resource.

Like the native stack, the script stack lives in (untrusted) process
memory: it supports the same corruption/DoS injection hooks, and the
kernel-side collector must degrade to "no context" rather than fail.
"""

from __future__ import annotations

from typing import List, Optional

from repro import errors


class ScriptFrame:
    """One interpreter-level frame.

    Attributes:
        path: script file path (e.g. a .php file).
        line: 1-based line number of the call site.
        function: script-level function name, for logs.
    """

    __slots__ = ("path", "line", "function")

    def __init__(self, path, line, function=""):
        self.path = path
        self.line = int(line)
        self.function = function

    def entrypoint(self):
        """Return ``(script_path, line)``: the script-level call site."""
        return (self.path, self.line)

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<ScriptFrame {}:{} {}>".format(self.path, self.line, self.function)


class InterpreterStack:
    """The script-level call stack of an interpreted program."""

    #: Same defensive cap as the native unwinder.
    MAX_UNWIND_FRAMES = 64

    def __init__(self, language=""):
        #: Interpreter language ("php", "python", "bash"), for audit.
        self.language = language
        self._frames = []  # type: List[ScriptFrame]
        #: Injection hooks mirroring :class:`repro.proc.stack.UserStack`.
        self.corrupt_below = None  # type: Optional[int]
        self.infinite = False

    def push(self, path, line, function=""):
        """Script call: push a frame for ``path:line``; return it."""
        frame = ScriptFrame(path, line, function=function)
        self._frames.append(frame)
        return frame

    def pop(self):
        """Script return: pop and return the innermost frame."""
        if not self._frames:
            raise errors.EFAULT("pop on empty script stack")
        return self._frames.pop()

    @property
    def depth(self):
        """Number of frames on the script stack."""
        return len(self._frames)

    def top(self):
        """The innermost frame, or ``None`` on an empty stack."""
        return self._frames[-1] if self._frames else None

    def unwind(self, max_frames=None):
        """Defensive unwind, innermost first (see UserStack.unwind)."""
        cap = max_frames or self.MAX_UNWIND_FRAMES
        if self.infinite:
            return self._unwind_looping(cap)
        frames = self._frames
        limit = len(frames) if len(frames) < cap else cap
        corrupt_below = self.corrupt_below
        if corrupt_below is not None and corrupt_below < limit:
            raise errors.EFAULT("corrupted script frame at depth {}".format(corrupt_below))
        return frames[:-limit - 1:-1]

    def _unwind_looping(self, cap):
        """The unwind of a looping script stack: recycles frames up to ``cap``."""
        out = []
        source = list(reversed(self._frames))
        i = 0
        while True:
            if i >= len(source):
                if source:
                    i = 0
                else:
                    return out
            if len(out) >= cap:
                return out
            if self.corrupt_below is not None and i >= self.corrupt_below:
                raise errors.EFAULT("corrupted script frame at depth {}".format(i))
            out.append(source[i])
            i += 1
