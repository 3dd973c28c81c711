"""The Apache-like server."""

import pytest

from repro.programs.apache import ApacheServer
from repro.world import build_world, spawn_adversary


@pytest.fixture
def world():
    return build_world()


@pytest.fixture
def server(world):
    proc = world.spawn("apache2", uid=0, label="httpd_t", binary_path="/usr/bin/apache2")
    return ApacheServer(world, proc)


class TestServing:
    def test_serves_index(self, server):
        response = server.serve("/index.html")
        assert response.status == 200
        assert b"hello" in response.body

    def test_404_for_missing(self, server):
        assert server.serve("/nothing.html").status == 404

    def test_403_for_directory(self, world, server):
        world.mkdirs("/var/www/html/subdir", label="httpd_sys_content_t")
        assert server.serve("/subdir").status == 403

    def test_traversal_escapes_docroot(self, server):
        response = server.serve("/../../../../etc/passwd")
        assert response.status == 200
        assert b"root:" in response.body

    def test_filter_blocks_dotdot(self, world):
        proc = world.spawn("apache2", uid=0, label="httpd_t", binary_path="/usr/bin/apache2")
        server = ApacheServer(world, proc, filter_traversal=True)
        assert server.serve("/../../etc/passwd").status == 400


class TestSymlinksIfOwnerMatch:
    @pytest.fixture
    def checking_server(self, world):
        proc = world.spawn("apache2", uid=0, label="httpd_t", binary_path="/usr/bin/apache2")
        return ApacheServer(world, proc, symlinks_if_owner_match=True)

    def test_same_owner_link_served(self, world, checking_server):
        world.add_file("/var/www/html/real.html", b"real", uid=0, label="httpd_sys_content_t")
        world.add_symlink("/var/www/html/alias.html", "/var/www/html/real.html", uid=0)
        assert checking_server.serve("/alias.html").status == 200

    def test_owner_mismatch_forbidden(self, world, checking_server, adversary_link):
        assert checking_server.serve("/leak.html").status == 403

    def test_unchecked_server_follows(self, world, server, adversary_link):
        response = server.serve("/leak.html")
        assert response.status == 200 and b"root:" in response.body

    def test_program_checks_cost_syscalls(self, world, checking_server, server):
        world.add_file("/var/www/html/page.html", b"x", label="httpd_sys_content_t")
        before = world.stats.total_syscalls
        server.serve("/page.html")
        plain_cost = world.stats.total_syscalls - before
        before = world.stats.total_syscalls
        checking_server.serve("/page.html")
        checked_cost = world.stats.total_syscalls - before
        assert checked_cost > plain_cost


@pytest.fixture
def adversary_link(world):
    adversary = spawn_adversary(world)
    # The upload dir is writable by the adversary inside the docroot.
    world.mkdirs("/var/www/html/up", uid=1000, mode=0o777, label="httpd_user_content_t")
    world.sys.symlink(adversary, "/etc/passwd", "/var/www/html/up/link")
    world.add_symlink("/var/www/html/leak.html", "/var/www/html/up/link", uid=1000)
    return adversary


class TestAuthentication:
    def test_auth_reads_shadow(self, server):
        assert server.authenticate("root", "secret")

    def test_auth_uses_distinct_entrypoint(self, world, server):
        from repro.firewall.engine import ProcessFirewall
        from repro.programs.apache import EPT_AUTH_OPEN, EPT_SERVE_OPEN

        pf = ProcessFirewall()
        world.attach_firewall(pf)
        pf.install("pftables -A input -o FILE_OPEN -j LOG")
        server.serve("/index.html")
        server.authenticate("root", "x")
        epts = [tuple(r["entrypoint"]) for r in pf.audit.records(kind="log") if r["entrypoint"]]
        assert ("/usr/bin/apache2", EPT_SERVE_OPEN) in epts
        assert ("/usr/bin/apache2", EPT_AUTH_OPEN) in epts
