"""Tests for the simulated communicator (repro.dist.comm)."""

import numpy as np
import pytest

from repro.dist.comm import SimComm, payload_nbytes


class TestCollectives:
    def test_alltoallv_transposes(self):
        comm = SimComm(3)
        send = [[f"{s}->{d}" for d in range(3)] for s in range(3)]
        recv = comm.alltoallv(send)
        for d in range(3):
            for s in range(3):
                assert recv[d][s] == f"{s}->{d}"

    def test_alltoallv_shape_checked(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.alltoallv([[1, 2]])

    def test_allgather(self):
        comm = SimComm(4)
        out = comm.allgather([10, 11, 12, 13])
        assert all(o == [10, 11, 12, 13] for o in out)

    def test_allgather_arity_checked(self):
        with pytest.raises(ValueError):
            SimComm(3).allgather([1, 2])

    def test_allreduce_sum(self):
        comm = SimComm(3)
        vals = [np.array([1, 2]), np.array([10, 20]), np.array([100, 200])]
        assert comm.allreduce(vals).tolist() == [111, 222]

    def test_allreduce_max_min(self):
        comm = SimComm(2)
        vals = [np.array([1, 9]), np.array([5, 3])]
        assert comm.allreduce(vals, op="max").tolist() == [5, 9]
        assert comm.allreduce(vals, op="min").tolist() == [1, 3]

    def test_allreduce_unknown_op(self):
        with pytest.raises(ValueError):
            SimComm(2).allreduce([np.array([1]), np.array([2])], op="xor")

    def test_bcast(self):
        comm = SimComm(3)
        out = comm.bcast({"x": 1})
        assert len(out) == 3 and all(o == {"x": 1} for o in out)

    def test_single_rank(self):
        comm = SimComm(1)
        assert comm.alltoallv([[42]]) == [[42]]
        assert comm.allreduce([np.array([7])]).tolist() == [7]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimComm(0)


class TestStats:
    def test_traffic_counted_excluding_self(self):
        comm = SimComm(2)
        a = np.zeros(100, dtype=np.int64)
        comm.alltoallv([[a, a], [a, a]])
        # only the two off-diagonal messages count
        assert comm.stats.bytes_sent == 2 * a.nbytes

    def test_supersteps_counted(self):
        comm = SimComm(2)
        comm.barrier()
        comm.allgather([1, 2])
        assert comm.stats.supersteps == 2

    def test_per_rank_trackers(self):
        comm = SimComm(2)
        comm.trackers[0].alloc("x", 100)
        comm.trackers[1].alloc("y", 300)
        assert comm.max_rank_peak_bytes() == 300
        assert comm.rank_peaks() == [100, 300]


class TestPayloadSizing:
    """``payload_nbytes`` against hand-computed wire sizes."""

    def test_array_is_true_buffer_size(self):
        assert payload_nbytes(np.zeros(10, dtype=np.int64)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.int32)) == 40
        assert payload_nbytes(np.zeros((3, 4), dtype=np.float64)) == 96
        assert payload_nbytes(np.empty(0, dtype=np.int64)) == 0

    def test_buffers_and_scalars(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(bytearray(7)) == 7
        assert payload_nbytes(True) == 1
        assert payload_nbytes(np.bool_(False)) == 1
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes(np.int32(3)) == 8
        assert payload_nbytes("héllo") == len("héllo".encode("utf-8"))
        assert payload_nbytes(None) == 0

    def test_containers_recurse(self):
        payload = [np.zeros(5, dtype=np.int64), (1, 2.0), None]
        assert payload_nbytes(payload) == 40 + 16 + 0
        assert payload_nbytes({"k": np.zeros(2, dtype=np.int64)}) == 1 + 16

    def test_alltoallv_traffic_hand_computed(self):
        comm = SimComm(3)
        a = np.zeros(4, dtype=np.int64)  # 32 bytes
        send = [[a, a, a] for _ in range(3)]
        comm.alltoallv(send)
        # 6 off-diagonal messages of 32 bytes each
        assert comm.stats.bytes_sent == 6 * 32
        assert comm.stats.messages == 6

    def test_allgather_traffic_hand_computed(self):
        comm = SimComm(4)
        comm.allgather([np.zeros(2, dtype=np.int64)] * 4)  # 16 B per rank
        # each rank's 16 B item travels to the other 3 ranks
        assert comm.stats.bytes_sent == 4 * 16 * 3

    def test_allreduce_traffic_hand_computed(self):
        comm = SimComm(3)
        comm.allreduce([np.zeros(8, dtype=np.int64)] * 3)  # 64 B operand
        # reduce-then-broadcast tree: 2 traversals of (size-1) links
        assert comm.stats.bytes_sent == 64 * 2 * 2

    def test_bcast_traffic_hand_computed(self):
        comm = SimComm(4)
        comm.bcast(np.zeros(3, dtype=np.int64))  # 24 B to 3 other ranks
        assert comm.stats.bytes_sent == 24 * 3
        assert comm.stats.messages == 3


class TestPerKindStats:
    def test_by_kind_split(self):
        comm = SimComm(2)
        a = np.zeros(4, dtype=np.int64)
        comm.alltoallv([[a, a], [a, a]])
        comm.alltoallv([[a, a], [a, a]])
        comm.allreduce([np.zeros(1, dtype=np.int64)] * 2)
        comm.bcast(7)
        comm.barrier()
        kinds = comm.stats.by_kind
        assert kinds["alltoallv"].calls == 2
        assert kinds["alltoallv"].bytes_sent == 2 * 2 * 32
        assert kinds["allreduce"].calls == 1
        assert kinds["allreduce"].bytes_sent == 8 * 2 * 1
        assert kinds["bcast"].bytes_sent == 8
        assert kinds["barrier"].calls == 1
        assert kinds["barrier"].bytes_sent == 0
        # the aggregate is exactly the sum of the per-kind split
        assert comm.stats.bytes_sent == sum(
            k.bytes_sent for k in kinds.values()
        )
        assert comm.stats.messages == sum(
            k.messages for k in kinds.values()
        )
        assert comm.stats.supersteps == sum(
            k.calls for k in kinds.values()
        )
