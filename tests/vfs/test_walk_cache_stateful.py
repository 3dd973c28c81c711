"""Stateful differential: the dcache-backed walker equals a cold walker.

A hypothesis state machine mutates a small tree through every path the
walk cache must notice (create, mkdir, unlink, rmdir plus inode
recycling, rename of files and directories including overwrites,
symlink swaps, hard links, relabel, remount, adversary registration).
After every step it resolves each ``/dir/name`` slot of the tree and the
last few random queries (absolute and relative, ``follow_final`` and
``want_parent`` varied) and requires the kernel's cached walker to
return exactly what ``PathWalker(fs, dcache=None)`` returns on the same
filesystem: the same inode, parent, name, path, symlink count and step
sequence, or the same error.  Checking every slot after every step is
what makes a missed invalidation show at once: a walk cached before the
step is served after it.

The run is derandomized with a fixed example budget, so tier-1 sees the
same sequences every time.
"""

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro import errors
from repro.kernel import Kernel
from repro.vfs.inode import FileType
from repro.vfs.namei import PathWalker

NAMES = ("a", "b", "c")
COMPONENTS = NAMES + ("..", ".")
DIRS = ("/", "/a", "/b", "/c")  # "/c" is a symlink to "a/b"
MAX_QUERIES = 8

#: Every ``/dir/name`` slot of the tree, resolved both ways: the walks a
#: change in one directory must drop, and a change elsewhere must keep.
SLOT_QUERIES = tuple(
    (directory + "/" + name, None, True, want_parent)
    for directory in ("",) + DIRS[1:]
    for name in NAMES
    for want_parent in (False, True)
)

names = st.sampled_from(NAMES)
dir_paths = st.sampled_from(DIRS)
walk_paths = st.lists(st.sampled_from(COMPONENTS), min_size=1, max_size=3).map("/".join)
link_targets = st.one_of(
    walk_paths,
    walk_paths.map(lambda path: "/" + path),
)


def _observables(walker, path, cwd, follow_final, want_parent):
    seen = []
    try:
        r = walker.resolve(path, cwd=cwd, follow_final=follow_final,
                           want_parent=want_parent, observer=seen.append)
    except errors.KernelError as exc:
        return ("error", type(exc).__name__, exc.message, _steps(seen))
    return (r.inode, r.parent, r.name, r.path, r.symlinks_followed,
            _steps(r.steps), _steps(seen))


def _steps(steps):
    return [(s.event, s.inode, s.name, s.prefix, s.depth) for s in steps]


class WalkCacheMachine(RuleBasedStateMachine):
    """Mutate a small tree; every resolve must match the cold walker."""

    @initialize()
    def build(self):
        self.kernel = Kernel()
        self.fs = self.kernel.fs
        self.cold = PathWalker(self.fs, dcache=None)
        self.kernel.mkdirs("/a/b")
        self.kernel.mkdirs("/b")
        self.kernel.add_file("/a/c", b"c")
        self.kernel.add_file("/a/b/c", b"bc")
        self.kernel.add_symlink("/c", "a/b")
        self.cwds = [self.fs.root, self.kernel.lookup("/a")]
        self.next_uid = 5000
        #: The last few resolutions asked for, re-checked after every step.
        self.queries = []

    # -- helpers -----------------------------------------------------------

    def _dir(self, path):
        """The directory at ``path`` now, by the cold walker, or None."""
        try:
            inode = self.cold.resolve(path).inode
        except errors.KernelError:
            return None
        return inode if inode.is_dir else None

    def _entry(self, path, name):
        directory = self._dir(path)
        if directory is None or name not in directory.children:
            return directory, None
        return directory, self.fs.inodes.get(directory.children[name])

    # -- namespace mutations -----------------------------------------------

    @rule(path=dir_paths, name=names)
    def mkdir(self, path, name):
        directory, existing = self._entry(path, name)
        if directory is not None and existing is None:
            self.fs.create(directory, name, FileType.DIR, mode=0o755)

    @rule(path=dir_paths, name=names)
    def create(self, path, name):
        directory, existing = self._entry(path, name)
        if directory is not None and existing is None:
            self.fs.create(directory, name, FileType.REG)

    @rule(path=dir_paths, name=names)
    def unlink(self, path, name):
        directory, existing = self._entry(path, name)
        if existing is not None and not existing.is_dir:
            self.fs.unlink(directory, name)

    @rule(path=dir_paths, name=names, as_dir=st.booleans())
    def rmdir_and_recycle(self, path, name, as_dir):
        """Remove an empty directory, then recreate the name: the inode
        table hands the lowest freed number out first, so the new tenant
        usually reuses the old directory's number (cryogenic sleep)."""
        directory, existing = self._entry(path, name)
        if existing is None or not existing.is_dir or existing.children:
            return
        self.fs.rmdir(directory, name)
        self.fs.create(directory, name, FileType.DIR if as_dir else FileType.REG)

    @rule(src=dir_paths, src_name=names, dst=dir_paths, dst_name=names)
    def rename(self, src, src_name, dst, dst_name):
        src_dir, moved = self._entry(src, src_name)
        dst_dir = self._dir(dst)
        if moved is None or dst_dir is None:
            return
        try:
            self.fs.rename(src_dir, src_name, dst_dir, dst_name)
        except (errors.EINVAL, errors.ENOTEMPTY):
            pass

    @rule(path=dir_paths, name=names, body=link_targets)
    def symlink_swap(self, path, name, body):
        directory, existing = self._entry(path, name)
        if directory is None or (existing is not None and existing.is_dir):
            return
        if existing is not None:
            self.fs.unlink(directory, name)
        self.fs.symlink(directory, name, body)

    @rule(path=dir_paths, name=names, existing_path=walk_paths)
    def hardlink(self, path, name, existing_path):
        directory, existing = self._entry(path, name)
        try:
            inode = self.cold.resolve("/" + existing_path, follow_final=False).inode
        except errors.KernelError:
            return
        if directory is not None and existing is None and not inode.is_dir:
            self.fs.hardlink(directory, name, inode)

    @rule(path=walk_paths, label=st.sampled_from(("etc_t", "tmp_t")))
    def relabel(self, path, label):
        try:
            inode = self.cold.resolve("/" + path, follow_final=False).inode
        except errors.KernelError:
            return
        self.fs.relabel(inode, label)

    @rule()
    def remount(self):
        self.fs.remount()

    @rule()
    def register_adversary(self):
        self.kernel.adversaries.register_uid(self.next_uid)
        self.next_uid += 1

    @precondition(lambda self: len(self.cwds) < 6)
    @rule(path=dir_paths)
    def remember_cwd(self, path):
        directory = self._dir(path)
        if directory is not None:
            self.cwds.append(directory)

    # -- resolution --------------------------------------------------------

    @rule(path=walk_paths, absolute=st.booleans(), cwd=st.integers(0, 5),
          follow_final=st.booleans(), want_parent=st.booleans())
    def resolve(self, path, absolute, cwd, follow_final, want_parent):
        if absolute:
            path, start = "/" + path, None
        else:
            start = self.cwds[cwd % len(self.cwds)]
        query = (path, start, follow_final, want_parent)
        self._check(query)
        if query in self.queries:
            self.queries.remove(query)
        self.queries = self.queries[-(MAX_QUERIES - 1):] + [query]

    def _check(self, query):
        cached = _observables(self.kernel.walker, *query)
        cold = _observables(self.cold, *query)
        assert cached == cold, query

    @invariant()
    def walks_match_cold(self):
        """Every slot and every remembered query, cached or not, still
        matches the cold walker after whatever the last step changed."""
        for query in SLOT_QUERIES:
            self._check(query)
        for query in self.queries:
            self._check(query)

    @invariant()
    def index_matches_entries(self):
        walks = self.kernel.dcache.walks
        assert set(walks._searched) == set(walks._entries)
        for key, searched in walks._searched.items():
            for directory in searched:
                assert key in walks._searchers[directory]
        assert sum(map(len, walks._searchers.values())) == sum(map(len, walks._searched.values()))


WalkCacheMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestWalkCacheDifferential = WalkCacheMachine.TestCase


def test_machine_serves_warm_walks():
    """Guard against vacuity: a fixed sequence of the machine's own
    rules both hits the walk cache and drops entries precisely."""
    machine = WalkCacheMachine()
    machine.build()
    walks = machine.kernel.dcache.walks
    hits, invalidations = walks.hits, walks.invalidations
    for _ in range(2):
        machine.resolve("a/b/c", True, 0, True, False)
        machine.resolve("b/c", False, 1, True, False)  # from cwd /a
    assert walks.hits == hits + 2
    machine.create("/b", "a")  # /b is searched by neither walk
    machine.resolve("a/b/c", True, 0, True, False)
    assert (walks.hits, walks.invalidations) == (hits + 3, invalidations)
    machine.create("/a", "a")  # /a is searched by both
    machine.resolve("a/b/c", True, 0, True, False)
    machine.resolve("b/c", False, 1, True, False)
    assert (walks.hits, walks.invalidations) == (hits + 3, invalidations + 1)
