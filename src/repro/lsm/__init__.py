"""Host LSM-KVS engine (the paper's Main-LSM; RocksDB-like)."""

from .bloom import BloomFilter, key_hash
from .codec import (
    decode_block,
    decode_entry,
    decode_varint,
    encode_block,
    encode_entry,
    encode_varint,
)
from .compaction import (
    CompactionJob,
    CompactionPicker,
    merge_for_compaction,
    split_into_files,
)
from .db import DbImpl, DbStats
from .fs import FileSystem, FsError, PageCache, SimFile
from .iterator import k_way_merge, merging_iterator
from .memtable import DictMemTable
from .options import LsmOptions
from .sstable import ProbeResult, SSTable
from .version import FileMetadata, Version, VersionEdit, VersionSet
from .wal import Wal
from .write_controller import StallReason, WriteController, WriteState

__all__ = [
    "BloomFilter",
    "key_hash",
    "decode_block",
    "decode_entry",
    "decode_varint",
    "encode_block",
    "encode_entry",
    "encode_varint",
    "CompactionJob",
    "CompactionPicker",
    "merge_for_compaction",
    "split_into_files",
    "DbImpl",
    "DbStats",
    "FileSystem",
    "FsError",
    "PageCache",
    "SimFile",
    "k_way_merge",
    "merging_iterator",
    "DictMemTable",
    "LsmOptions",
    "ProbeResult",
    "SSTable",
    "FileMetadata",
    "Version",
    "VersionEdit",
    "VersionSet",
    "Wal",
    "StallReason",
    "WriteController",
    "WriteState",
]
