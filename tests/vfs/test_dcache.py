"""Unit tests for the name-resolution fast path (repro.vfs.dcache).

The load-bearing section is the invalidation matrix: every mutation
the module docstring promises to catch (create / unlink / rename /
symlink / relabel / remount / adversary-epoch) must flip a cached
answer — either an observable resolution change or, where behaviour is
identical by construction, a counted invalidation proving the cached
entry was dropped rather than served.
"""

import pytest

from repro import errors
from repro.kernel import Kernel
from repro.vfs.dcache import Dcache, DentryCache, WalkCache
from repro.vfs.file import OpenFlags
from repro.vfs.inode import FileType


@pytest.fixture
def kernel():
    k = Kernel()
    k.mkdirs("/etc")
    k.add_file("/etc/passwd", b"root:x:0:0\n")
    k.mkdirs("/var/www")
    return k


def _resolve(kernel, path, **kw):
    return kernel.walker.resolve(path, **kw)


# ---------------------------------------------------------------------------
# dentry cache basics
# ---------------------------------------------------------------------------


class TestDentryCache:
    def test_positive_hit_serves_same_inode(self, kernel):
        first = _resolve(kernel, "/etc/passwd").inode
        second = _resolve(kernel, "/etc/passwd").inode
        assert second is first

    def test_shared_prefix_hits_dentry_layer(self, kernel):
        """Distinct paths share dentry entries even when their walk
        keys differ — the second walk misses the walk cache but finds
        (root, "etc") already cached."""
        kernel.add_file("/etc/other", b"y")
        _resolve(kernel, "/etc/passwd")
        hits_before = kernel.dcache.dentries.hits
        _resolve(kernel, "/etc/other")
        assert kernel.dcache.dentries.hits > hits_before

    def test_negative_entry_served_with_identical_error(self, kernel):
        with pytest.raises(errors.ENOENT) as cold:
            _resolve(kernel, "/etc/nope")
        neg_before = kernel.dcache.dentries.neg_hits
        with pytest.raises(errors.ENOENT) as warm:
            _resolve(kernel, "/etc/nope")
        assert kernel.dcache.dentries.neg_hits == neg_before + 1
        assert warm.value.message == cold.value.message

    def test_lookup_semantics_match_fs(self, kernel):
        etc = kernel.lookup("/etc")
        passwd = kernel.lookup("/etc/passwd")
        dc = kernel.dcache
        assert dc.lookup(kernel.fs, etc, ".") is etc
        with pytest.raises(errors.ENOTDIR):
            dc.lookup(kernel.fs, passwd, "x")

    def test_capacity_wholesale_clear(self, kernel):
        small = DentryCache(capacity=2)
        etc = kernel.lookup("/etc")
        root = kernel.fs.root
        small.lookup(kernel.fs, root, "etc")
        small.lookup(kernel.fs, etc, "passwd")
        assert len(small) == 2
        small.lookup(kernel.fs, root, "var")  # over capacity: clears first
        assert len(small) == 1


# ---------------------------------------------------------------------------
# walk cache basics
# ---------------------------------------------------------------------------


def _dentry_counters(kernel):
    return {k: v for k, v in kernel.dcache.counters().items() if k[0] == "dentry"}


class TestWalkCache:
    @pytest.mark.parametrize("path", [
        "/etc/passwd",
        "/usr/share/app/config/deep/nested/leaf.conf",
    ], ids=["shallow", "deep"])
    def test_hit_after_identical_resolve(self, kernel, monkeypatch, path):
        kernel.mkdirs("/usr/share/app/config/deep/nested")
        kernel.add_file("/usr/share/app/config/deep/nested/leaf.conf", b"x")
        fs = kernel.walker.fs
        fs_lookup = fs.lookup
        searched = []

        def counting_lookup(dir_inode, name):
            searched.append(name)
            return fs_lookup(dir_inode, name)

        monkeypatch.setattr(fs, "lookup", counting_lookup)
        _resolve(kernel, path)
        hits = kernel.dcache.walks.hits
        dentries = _dentry_counters(kernel)
        searched.clear()
        r = _resolve(kernel, path)
        assert kernel.dcache.walks.hits == hits + 1
        assert r.path == path
        # A warm hit replays the recorded walk: no directory is searched
        # and the dentry layer is not consulted at all.
        assert searched == []
        assert _dentry_counters(kernel) == dentries
        # Cold, the same resolve searches one directory per component.
        kernel.dcache.enabled = False
        cold = _resolve(kernel, path)
        assert searched == path.split("/")[1:]
        assert cold.inode is r.inode

    def test_replay_returns_fresh_equal_resolution(self, kernel):
        cold = _resolve(kernel, "/etc/passwd")
        warm = _resolve(kernel, "/etc/passwd")
        assert warm.inode is cold.inode
        assert warm.parent is cold.parent
        assert (warm.name, warm.path, warm.symlinks_followed) == (
            cold.name, cold.path, cold.symlinks_followed)
        assert [(s.event, s.inode, s.name, s.prefix, s.depth) for s in warm.steps] == [
            (s.event, s.inode, s.name, s.prefix, s.depth) for s in cold.steps]
        # Fresh list container: mutating one caller's view cannot leak.
        assert warm.steps is not cold.steps
        warm.steps.append(None)
        assert _resolve(kernel, "/etc/passwd").steps[-1] is not None

    def test_replay_invokes_observer_identically(self, kernel):
        cold_seen = []
        _resolve(kernel, "/etc/passwd", observer=cold_seen.append)
        warm_seen = []
        _resolve(kernel, "/etc/passwd", observer=warm_seen.append)
        assert [(s.event, s.name, s.prefix, s.depth) for s in warm_seen] == [
            (s.event, s.name, s.prefix, s.depth) for s in cold_seen]

    def test_observer_exception_aborts_mid_replay(self, kernel):
        _resolve(kernel, "/etc/passwd")  # prime

        seen = []

        def deny_second(step):
            seen.append(step)
            if len(seen) == 2:
                raise errors.PFDenied("stop here")

        with pytest.raises(errors.PFDenied):
            _resolve(kernel, "/etc/passwd", observer=deny_second)
        assert len(seen) == 2  # aborted exactly at the denied step

    def test_key_discriminates_flags(self, kernel):
        kernel.add_symlink("/etc/link", "/etc/passwd")
        followed = _resolve(kernel, "/etc/link", follow_final=True)
        nofollow = _resolve(kernel, "/etc/link", follow_final=False)
        assert followed.inode is not nofollow.inode
        assert nofollow.inode.is_symlink
        parent = _resolve(kernel, "/etc/link", want_parent=True)
        assert parent.parent is kernel.lookup("/etc")

    def test_relative_key_includes_cwd_identity(self, kernel):
        etc = kernel.lookup("/etc")
        var = kernel.lookup("/var")
        kernel.add_file("/var/passwd", b"decoy")
        proc_a = kernel.spawn("a", cwd="/etc")
        proc_b = kernel.spawn("b", cwd="/var")
        ra = _resolve(kernel, "passwd", cwd=proc_a.cwd)
        rb = _resolve(kernel, "passwd", cwd=proc_b.cwd)
        assert ra.inode is not rb.inode
        assert ra.parent is etc and rb.parent is var

    def test_error_walks_never_memoized(self, kernel):
        with pytest.raises(errors.ENOENT):
            _resolve(kernel, "/etc/missing/deep")
        assert len(kernel.dcache.walks) == 0 or all(
            k[0] != "/etc/missing/deep" for k in kernel.dcache.walks._entries)

    def test_disabled_goes_cold(self, kernel):
        _resolve(kernel, "/etc/passwd")
        kernel.dcache.enabled = False
        hits = kernel.dcache.walks.hits
        dhits = kernel.dcache.dentries.hits
        _resolve(kernel, "/etc/passwd")
        assert kernel.dcache.walks.hits == hits
        assert kernel.dcache.dentries.hits == dhits


# ---------------------------------------------------------------------------
# the invalidation matrix — every source flips a cached answer
# ---------------------------------------------------------------------------


class TestInvalidationMatrix:
    def test_create_flips_negative_dentry(self, kernel):
        with pytest.raises(errors.ENOENT):
            _resolve(kernel, "/etc/newfile")
        with pytest.raises(errors.ENOENT):
            _resolve(kernel, "/etc/newfile")  # negative entry is live
        inode = kernel.add_file("/etc/newfile", b"now exists")
        assert _resolve(kernel, "/etc/newfile").inode is inode

    def test_unlink_flips_positive_walk_and_dentry(self, kernel):
        inode = _resolve(kernel, "/etc/passwd").inode
        assert _resolve(kernel, "/etc/passwd").inode is inode
        kernel.fs.unlink(kernel.lookup("/etc"), "passwd")
        with pytest.raises(errors.ENOENT):
            _resolve(kernel, "/etc/passwd")

    def test_unlinked_then_recycled_ino_never_served(self, kernel):
        etc = kernel.lookup("/etc")
        victim = kernel.add_file("/etc/victim", b"old tenant")
        old_ino = victim.ino
        _resolve(kernel, "/etc/victim")
        kernel.fs.unlink(etc, "victim")
        # The inode table recycles the lowest freed number.
        tenant = kernel.fs.create(etc, "tenant", FileType.REG)
        assert tenant.ino == old_ino  # same number, new object
        with pytest.raises(errors.ENOENT):
            _resolve(kernel, "/etc/victim")
        assert _resolve(kernel, "/etc/tenant").inode is tenant

    def test_rename_flips_both_names(self, kernel):
        inode = _resolve(kernel, "/etc/passwd").inode
        with pytest.raises(errors.ENOENT):
            _resolve(kernel, "/etc/passwd.bak")
        etc = kernel.lookup("/etc")
        kernel.fs.rename(etc, "passwd", etc, "passwd.bak")
        with pytest.raises(errors.ENOENT):
            _resolve(kernel, "/etc/passwd")
        assert _resolve(kernel, "/etc/passwd.bak").inode is inode

    def test_symlink_swap_changes_cached_resolution(self, kernel):
        """The E3/E5 pattern: replacing a link retargets the next walk."""
        kernel.add_file("/var/www/good", b"good")
        kernel.add_file("/etc/shadow", b"secret", mode=0o600, label="shadow_t")
        kernel.add_symlink("/var/www/upload", "/var/www/good")
        good = _resolve(kernel, "/var/www/upload").inode
        assert good is kernel.lookup("/var/www/good")
        www = kernel.lookup("/var/www")
        kernel.fs.unlink(www, "upload")
        kernel.fs.symlink(www, "upload", "/etc/shadow")
        swapped = _resolve(kernel, "/var/www/upload").inode
        assert swapped is kernel.lookup("/etc/shadow")

    def test_relabel_drops_cached_walks(self, kernel):
        passwd = _resolve(kernel, "/etc/passwd").inode
        hits = kernel.dcache.walks.hits
        inval = kernel.dcache.walks.invalidations
        kernel.fs.relabel(passwd, "shadow_t")
        _resolve(kernel, "/etc/passwd")  # must re-walk cold
        assert kernel.dcache.walks.hits == hits
        assert kernel.dcache.walks.invalidations == inval + 1

    def test_remount_clears_both_caches(self, kernel):
        _resolve(kernel, "/etc/passwd")
        assert len(kernel.dcache.dentries) > 0
        assert len(kernel.dcache.walks) > 0
        kernel.fs.remount()
        assert len(kernel.dcache.dentries) == 0
        assert len(kernel.dcache.walks) == 0
        hits = kernel.dcache.walks.hits
        _resolve(kernel, "/etc/passwd")
        assert kernel.dcache.walks.hits == hits  # cold again

    def test_adversary_epoch_drops_cached_walks(self, kernel):
        _resolve(kernel, "/etc/passwd")
        hits = kernel.dcache.walks.hits
        inval = kernel.dcache.walks.invalidations
        kernel.adversaries.register_uid(4242)  # population grows: new epoch
        _resolve(kernel, "/etc/passwd")
        assert kernel.dcache.walks.hits == hits
        assert kernel.dcache.walks.invalidations == inval + 1

    def test_hardlink_and_rmdir_flip_entries(self, kernel):
        etc = kernel.lookup("/etc")
        with pytest.raises(errors.ENOENT):
            _resolve(kernel, "/etc/alias")
        kernel.fs.hardlink(etc, "alias", kernel.lookup("/etc/passwd"))
        assert _resolve(kernel, "/etc/alias").inode is kernel.lookup("/etc/passwd")
        kernel.mkdirs("/etc/empty")
        assert _resolve(kernel, "/etc/empty").inode.is_dir
        kernel.fs.rmdir(etc, "empty")
        with pytest.raises(errors.ENOENT):
            _resolve(kernel, "/etc/empty")

    def test_unrelated_create_and_rename_keep_cached_walk(self, kernel):
        """A change in /var/www drops nothing /etc/passwd's walk searched."""
        passwd = _resolve(kernel, "/etc/passwd").inode
        www = kernel.lookup("/var/www")
        hits = kernel.dcache.walks.hits
        inval = kernel.dcache.walks.invalidations
        kernel.fs.create(www, "new", FileType.REG)
        kernel.fs.rename(www, "new", www, "renamed")
        assert _resolve(kernel, "/etc/passwd").inode is passwd
        assert kernel.dcache.walks.hits == hits + 1
        assert kernel.dcache.walks.invalidations == inval

    def test_create_drops_only_walks_that_searched_the_directory(self, kernel):
        _resolve(kernel, "/etc/passwd")
        _resolve(kernel, "/var/www", want_parent=True)
        www = kernel.lookup("/var/www")
        walks = kernel.dcache.walks
        assert ("/etc/passwd", True, False) in walks._entries
        kernel.fs.create(kernel.lookup("/etc"), "new", FileType.REG)
        assert ("/etc/passwd", True, False) not in walks._entries
        assert ("/var/www", True, True) in walks._entries
        assert _resolve(kernel, "/var/www", want_parent=True).inode is www

    def test_walk_through_renamed_directory_dropped(self, kernel):
        kernel.mkdirs("/var/www/site")
        page = kernel.add_file("/var/www/site/index", b"old site")
        assert _resolve(kernel, "/var/www/site/index").inode is page
        walks = kernel.dcache.walks
        kernel.fs.rename(kernel.lookup("/var/www"), "site", kernel.lookup("/var"), "old")
        assert ("/var/www/site/index", True, False) not in walks._entries
        with pytest.raises(errors.ENOENT):
            _resolve(kernel, "/var/www/site/index")
        assert _resolve(kernel, "/var/old/index").inode is page
        kernel.mkdirs("/var/www/site")
        fresh = kernel.add_file("/var/www/site/index", b"new site")
        assert _resolve(kernel, "/var/www/site/index").inode is fresh

    def test_recycled_directory_inode_never_serves_predecessor(self, kernel):
        """Cryogenic sleep on a directory: same number, new generation."""
        srv = kernel.mkdirs("/srv")
        old = kernel.mkdirs("/srv/d")
        proc = kernel.spawn("p", cwd="/srv/d")
        rel = _resolve(kernel, "x", cwd=proc.cwd, want_parent=True)
        assert (rel.parent, rel.inode) == (old, None)
        assert _resolve(kernel, "/srv/d/x", want_parent=True).parent is old
        walks = kernel.dcache.walks
        assert (old.ino, old.generation) in walks._searchers
        kernel.fs.rmdir(srv, "d")
        new = kernel.fs.create(srv, "d", FileType.DIR)
        assert new.ino == old.ino and new.generation != old.generation
        child = kernel.fs.create(new, "x", FileType.REG)
        tenant = kernel.spawn("q", cwd="/srv/d")
        assert tenant.cwd is new
        assert _resolve(kernel, "x", cwd=new, want_parent=True).inode is child
        absolute = _resolve(kernel, "/srv/d/x", want_parent=True)
        assert (absolute.parent, absolute.inode) == (new, child)
        # The old tenant's cwd-relative walk is still its own.
        assert _resolve(kernel, "x", cwd=old, want_parent=True).inode is None

    def test_index_bounded_by_live_walks_under_churn(self, kernel):
        """Unique /tmp names churn forever; the walk cache and its
        reverse index stay at their steady-state size."""
        kernel.mkdirs("/tmp")
        kernel.mkdirs("/usr/include")
        kernel.mkdirs("/usr/src/obj")
        for i in range(4):
            kernel.add_file("/usr/include/hdr{}.h".format(i), b"#define X\n")
            kernel.add_file("/usr/src/src{}.c".format(i), b"int f;\n")
        make = kernel.spawn("make")
        sys = kernel.sys

        def job(index):
            src = index % 4
            fd = sys.open(make, "/usr/src/src{}.c".format(src))
            sys.close(make, fd)
            for h in range(4):
                sys.stat(make, "/usr/include/hdr{}.h".format(h))
            tmp = "/usr/src/obj/.src{}.o.tmp".format(src)
            fd = sys.open(make, tmp, OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_TRUNC)
            sys.write(make, fd, b"obj")
            sys.close(make, fd)
            sys.rename(make, tmp, "/usr/src/obj/src{}.o".format(src))
            if index % 4 == 3:
                trap = "/tmp/cc-trap-{}".format(index)
                sys.symlink(make, "/etc/passwd", trap)
                sys.close(make, sys.open(make, trap))
                sys.unlink(make, trap)

        walks = kernel.dcache.walks

        def sizes():
            keys = sum(len(v) for v in walks._searchers.values())
            assert keys == sum(len(v) for v in walks._searched.values())
            assert set(walks._searched) == set(walks._entries)
            return len(walks), len(walks._searchers), keys

        for index in range(200):
            job(index)
        steady = sizes()
        hits = walks.hits
        for index in range(200, 2000):
            job(index)
        assert sizes() == steady
        assert walks.hits - hits >= 1800 * 5  # the source and 4 headers stay warm

    def test_chmod_does_not_invalidate(self, kernel):
        """Verdicts re-run live on replay, so chmod needs no invalidation."""
        _resolve(kernel, "/etc/passwd")
        inval = kernel.dcache.walks.invalidations
        gen = kernel.fs.ns_gen
        kernel.fs.chmod(kernel.lookup("/etc/passwd"), 0o600)
        hits = kernel.dcache.walks.hits
        _resolve(kernel, "/etc/passwd")
        assert kernel.fs.ns_gen == gen
        assert kernel.dcache.walks.invalidations == inval
        assert kernel.dcache.walks.hits == hits + 1


# ---------------------------------------------------------------------------
# stamps, counters, publish
# ---------------------------------------------------------------------------


class TestStampsAndCounters:
    def test_walk_stamp_reads_kernel_sources(self, kernel):
        assert kernel.dcache.fs is kernel.fs
        assert kernel.dcache.adversaries is kernel.adversaries
        ns, mnt, ep = kernel.dcache.walk_stamp()
        assert (ns, mnt, ep) == (kernel.fs.ns_gen, kernel.fs.mount_generation,
                                 kernel.adversaries.epoch)

    def test_walk_stamp_without_adversaries(self, kernel):
        assert Dcache(kernel.fs).walk_stamp()[2] == 0

    def test_counters_shape(self, kernel):
        _resolve(kernel, "/etc/passwd")
        _resolve(kernel, "/etc/passwd")
        rows = kernel.dcache.counters()
        assert rows[("walk", "hit")] >= 1
        assert rows[("dentry", "miss")] >= 1
        assert set(cache for cache, _ in rows) == {"dentry", "walk"}

    def test_publish_exports_family(self, kernel):
        from repro.obs.metrics import MetricsRegistry

        _resolve(kernel, "/etc/passwd")
        _resolve(kernel, "/etc/passwd")
        registry = MetricsRegistry()
        registry.enable()
        kernel.dcache.publish(registry)
        assert registry.value("pf_dcache_total",
                              {"cache": "walk", "result": "hit"}) >= 1
        assert registry.value("pf_dcache_entries", {"cache": "dentry"}) >= 1

    def test_walk_cache_capacity_clears(self):
        wc = WalkCache(capacity=1)
        stamp = (0, 0, 0)
        from repro.vfs.namei import ResolvedPath
        r = ResolvedPath(None, None, "x", "/x", [], 0)
        wc.store(("a",), stamp, r)
        wc.store(("b",), stamp, r)  # over capacity: wholesale clear
        assert wc.fetch(("a",), stamp) is None
