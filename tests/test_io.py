"""Tests for binary / METIS I/O and streaming compression."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.graph.compressed import compress_graph, decompress_graph
from repro.graph.csr import CSRGraph
from repro.graph.io import (
    read_binary,
    read_metis,
    roundtrip_text,
    stream_compressed,
    write_binary,
    write_metis,
)

from conftest import graphs_equal


class TestBinary:
    def test_roundtrip(self, tmp_path, family_graph):
        path = tmp_path / "g.bin"
        write_binary(family_graph, path)
        assert graphs_equal(read_binary(path), family_graph)

    def test_roundtrip_weighted(self, tmp_path, text_graph):
        path = tmp_path / "g.bin"
        write_binary(text_graph, path)
        g2 = read_binary(path)
        assert g2.has_edge_weights
        assert graphs_equal(g2, text_graph)

    def test_roundtrip_vertex_weights(self, tmp_path):
        g = from_edges(3, np.array([[0, 1], [1, 2]]), vwgt=np.array([4, 5, 6]))
        path = tmp_path / "g.bin"
        write_binary(g, path)
        assert graphs_equal(read_binary(path), g)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError, match="magic"):
            read_binary(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"TP")
        with pytest.raises(ValueError, match="truncated"):
            read_binary(path)


class TestHostileFiles:
    """Both loaders check the header against the file before any body read."""

    LOADERS = [read_binary, stream_compressed]

    @pytest.mark.parametrize("load", LOADERS)
    def test_truncated_body_rejected(self, tmp_path, web_graph, load):
        path = tmp_path / "g.bin"
        write_binary(web_graph, path)
        path.write_bytes(path.read_bytes()[:-4000])
        with pytest.raises(ValueError, match="truncated"):
            load(path)

    @pytest.mark.parametrize("load", LOADERS)
    def test_trailing_bytes_rejected(self, tmp_path, tiny_graph, load):
        path = tmp_path / "g.bin"
        write_binary(tiny_graph, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing bytes"):
            load(path)

    @pytest.mark.parametrize("load", LOADERS)
    def test_oversized_header_allocates_nothing(self, tmp_path, tiny_graph, load):
        """n = 10**12 in the header: a ValueError, not an 8 TB read."""
        path = tmp_path / "g.bin"
        write_binary(tiny_graph, path)
        raw = bytearray(path.read_bytes())
        raw[8:16] = (10**12).to_bytes(8, "little")
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="truncated"):
            load(path)

    @pytest.mark.parametrize("load", LOADERS)
    def test_decreasing_indptr_rejected(self, tmp_path, tiny_graph, load):
        path = tmp_path / "g.bin"
        write_binary(tiny_graph, path)
        raw = bytearray(path.read_bytes())
        indptr = np.frombuffer(raw, dtype=np.int64, count=tiny_graph.n + 1, offset=32)
        indptr[1], indptr[2] = indptr[2], indptr[1]
        assert indptr[1] > indptr[2]
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="decreasing"):
            load(path)

    @pytest.mark.parametrize("load", LOADERS)
    @pytest.mark.parametrize("bad", [5, -3], ids=["above-n", "negative"])
    def test_out_of_range_neighbour_rejected(self, tmp_path, web_graph, load, bad):
        """A neighbour id of n + 5 or -3 must not reach the encoder: decoded,
        it would be used as an index by label propagation."""
        n = web_graph.n
        path = tmp_path / "g.bin"
        write_binary(web_graph, path)
        raw = bytearray(path.read_bytes())
        adjncy = np.frombuffer(
            raw, dtype=np.int64, count=len(web_graph.adjncy), offset=32 + 8 * (n + 1)
        )
        assert np.array_equal(adjncy, web_graph.adjncy)
        adjncy[len(adjncy) // 2] = bad if bad < 0 else n + bad
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="out-of-range vertex ID"):
            load(path)


    # the text loader: every refusal names the 1-based line it is about
    @pytest.mark.parametrize(
        "text, complaint",
        [
            ("", "line 1: header"),
            ("3\n", "line 1: header"),
            ("three 2\n", "line 1: non-integer"),
            ("-3 2\n", "line 1: header"),
            ("2 1 07\n2\n1\n", "line 1: format flags"),
            ("3 2\n2\n1 x\n2\n", "line 3: non-integer"),
            ("3 2\n2\n1 3.5\n2\n", "line 3: non-integer"),
            ("3 2 1\n2 7\n1 7 3\n2 4\n", "line 3: edge weight missing after neighbor 3"),
            ("3 2 10\n5 2\n\n6 2\n", "line 3: vertex weight missing"),
            ("3 2\n2\n1 4\n2\n", "line 3: neighbor id 4 outside \\[1, 3\\]"),
            ("3 2\n2\n1 0\n2\n", "line 3: neighbor id 0 outside"),
            ("3 2\n2\n1 -2\n2\n", "line 3: neighbor id -2 outside"),
            ("3 2\n% about vertex 1\n2\n1 3\n", "line 5: file ends after 2 of 3 vertex lines"),
            ("2 1 1\n2 99999999999999999999\n1 1\n", "line 2: integer beyond 64 bits"),
        ],
    )
    @pytest.mark.parametrize("door", ["path", "file"])
    def test_hostile_text_rejected(self, tmp_path, text, complaint, door):
        import io

        if door == "path":
            source = tmp_path / "g.metis"
            source.write_text(text)
        else:
            source = io.StringIO(text)
        with pytest.raises(ValueError, match=complaint):
            read_metis(source)

    @pytest.mark.parametrize("door", ["path", "file"])
    def test_oversized_text_header_allocates_nothing(self, tmp_path, door):
        """n = 10**12 in the header: a ValueError once the lines run out, not
        an 8 TB ``indptr``."""
        import io
        import tracemalloc

        text = "1000000000000 1\n2\n1\n"
        source = io.StringIO(text)
        if door == "path":
            source = tmp_path / "g.metis"
            source.write_text(text)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="line 4: file ends after 2 of 1000000000000"):
                read_metis(source)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_comment_lines_are_skipped(self, tmp_path, tiny_graph):
        path = tmp_path / "g.metis"
        write_metis(tiny_graph, path)
        lines = path.read_text().splitlines(keepends=True)
        commented = ["% a comment before the header\n", lines[0], "% and one after\n"]
        for line in lines[1:]:
            commented += [line, "%\n"]
        path.write_text("".join(commented))
        assert graphs_equal(read_metis(path), tiny_graph)


# valid texts to mutate: plain, edge-, vertex- and doubly weighted, commented
METIS_TEXTS = [
    b"4 4\n2 3\n1 3\n1 2 4\n3\n",
    b"3 2 1\n2 7\n1 7 3 4\n2 4\n",
    b"3 2 10\n5 2\n6 1 3\n1 2\n",
    b"% a triangle\n3 3 11\n1 2 5 3 9\n2 1 5 3 2\n4 1 9 2 2\n",
]


@st.composite
def mutated_metis(draw) -> bytes:
    """A valid METIS text with one to four bytes inserted, deleted or flipped."""
    data = bytearray(draw(st.sampled_from(METIS_TEXTS)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "flip"]))
        at = draw(st.integers(0, len(data)))
        if op == "insert":
            data.insert(at, draw(st.integers(0, 255)))
        elif at < len(data):
            if op == "delete":
                del data[at]
            else:
                data[at] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("metis") / "mutant.metis"


@settings(max_examples=400, deadline=2000)  # ms: a parser that spins fails here
@given(data=mutated_metis(), door=st.sampled_from(["path", "file"]))
def test_mutated_metis_text_is_a_graph_or_a_line_numbered_error(mutant_path, data, door):
    """Whatever a damaged byte does, ``read_metis`` returns a graph or
    raises ``ValueError`` naming a 1-based line -- never ``IndexError``,
    ``MemoryError`` or a hang -- through either door."""
    if door == "path":
        mutant_path.write_bytes(data)
        source = mutant_path
    else:
        source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    try:
        graph = read_metis(source)
    except ValueError as exc:
        assert re.match(r"line [1-9][0-9]*: ", str(exc)), str(exc)
    else:
        assert isinstance(graph, CSRGraph)



class TestStreamCompressed:
    def test_streaming_matches_in_memory_compression(self, tmp_path, web_graph):
        path = tmp_path / "g.bin"
        write_binary(web_graph, path)
        cg_stream = stream_compressed(path, packet_edges=256)
        cg_mem = compress_graph(web_graph)
        assert cg_stream.data == cg_mem.data
        assert np.array_equal(cg_stream.offsets, cg_mem.offsets)

    def test_streamed_graph_decodes_correctly(self, tmp_path, grid_graph):
        path = tmp_path / "g.bin"
        write_binary(grid_graph, path)
        cg = stream_compressed(path)
        assert graphs_equal(decompress_graph(cg), grid_graph)

    def test_streaming_weighted(self, tmp_path, text_graph):
        path = tmp_path / "g.bin"
        write_binary(text_graph, path)
        cg = stream_compressed(path, packet_edges=100)
        assert graphs_equal(decompress_graph(cg), text_graph)
        assert cg.total_edge_weight == text_graph.total_edge_weight

    def test_tiny_packets(self, tmp_path, tiny_graph):
        path = tmp_path / "g.bin"
        write_binary(tiny_graph, path)
        cg = stream_compressed(path, packet_edges=1)
        assert graphs_equal(decompress_graph(cg), tiny_graph)


class TestMetis:
    def test_text_roundtrip(self, family_graph):
        assert graphs_equal(roundtrip_text(family_graph), family_graph)

    def test_file_roundtrip(self, tmp_path, tiny_graph):
        path = tmp_path / "g.metis"
        write_metis(tiny_graph, path)
        assert graphs_equal(read_metis(path), tiny_graph)

    def test_weighted_text_roundtrip(self, text_graph):
        assert graphs_equal(roundtrip_text(text_graph), text_graph)

    def test_vertex_weighted_roundtrip(self, tmp_path):
        g = from_edges(3, np.array([[0, 1], [1, 2]]), vwgt=np.array([4, 5, 6]))
        path = tmp_path / "g.metis"
        write_metis(g, path)
        g2 = read_metis(path)
        assert graphs_equal(g2, g)

    def test_header_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("2 5\n2\n1\n")  # claims 5 edges, has 1
        with pytest.raises(ValueError, match="header"):
            read_metis(path)

    def test_one_indexing(self, tmp_path):
        path = tmp_path / "g.metis"
        path.write_text("2 1\n2\n1\n")
        g = read_metis(path)
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == [0]
