package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"trajmatch/internal/server"
	"trajmatch/internal/trajtree"
)

// FetchSnapshot ships a snapshot from src into dstDir so a replica can
// warm-boot instead of rebuilding: it fetches the peer's manifest,
// checks the manifest covers every requested global shard (nil shards
// means everything the peer has), fetches each shard's file, verifies it
// with the decoder that will load it, and only then commits by writing
// the manifest — the same "manifest last" transaction SaveSnapshot uses,
// so a fetch killed midway leaves no loadable half-snapshot. Existing
// files in dstDir are overwritten; stale shard files from a previous
// fetch are left alone (the manifest's coverage, not directory listing,
// drives the load).
//
// src is either a node base URL (http://host:port — files come from
// GET /cluster/v1/snapshot/{file}) or a filesystem path (an object
// store mount or a peer's exported directory — files are copied). The
// returned SnapshotInfo describes what was shipped.
func FetchSnapshot(ctx context.Context, src, dstDir string, shards []int, client *http.Client) (server.SnapshotInfo, error) {
	if client == nil {
		client = &http.Client{}
	}
	fetch := fetcherFor(src, client)
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return server.SnapshotInfo{}, fmt.Errorf("cluster: fetch snapshot: %w", err)
	}

	// The manifest lands under a temp name first: it must be readable to
	// plan the fetch, but its presence under the real name is the commit
	// point and nothing is committed yet.
	tmpDir, err := os.MkdirTemp(dstDir, "fetch-*")
	if err != nil {
		return server.SnapshotInfo{}, fmt.Errorf("cluster: fetch snapshot: %w", err)
	}
	defer os.RemoveAll(tmpDir)
	if err := fetch(ctx, server.SnapshotManifestName, filepath.Join(tmpDir, server.SnapshotManifestName)); err != nil {
		return server.SnapshotInfo{}, fmt.Errorf("cluster: fetch manifest: %w", err)
	}
	info, err := server.ReadSnapshotInfo(tmpDir)
	if err != nil {
		return server.SnapshotInfo{}, fmt.Errorf("cluster: fetched manifest: %w", err)
	}
	covered := map[int]bool{}
	for _, g := range info.Covered {
		covered[g] = true
	}
	if shards == nil {
		shards = info.Covered
	}
	for _, g := range shards {
		if !covered[g] {
			return server.SnapshotInfo{}, fmt.Errorf(
				"cluster: snapshot at %s covers shards %v of %d, not requested shard %d",
				src, info.Covered, info.Shards, g)
		}
	}

	// Shard files land under .tmp names, are verified, then renamed into
	// place — the manifest still names nothing until the end. A truncated
	// or corrupted transfer is caught here rather than at boot.
	for _, name := range server.SnapshotFiles(shards)[1:] {
		tmp := filepath.Join(dstDir, name+".tmp")
		if err := fetch(ctx, name, tmp); err != nil {
			os.Remove(tmp)
			return server.SnapshotInfo{}, fmt.Errorf("cluster: fetch %s: %w", name, err)
		}
		if _, _, err := trajtree.LoadArena(tmp); err != nil {
			os.Remove(tmp)
			return server.SnapshotInfo{}, fmt.Errorf("cluster: fetched %s: %w", name, err)
		}
		if err := os.Rename(tmp, filepath.Join(dstDir, name)); err != nil {
			return server.SnapshotInfo{}, fmt.Errorf("cluster: fetch snapshot: %w", err)
		}
	}

	// Commit: the manifest's arrival under its real name makes the
	// directory a loadable snapshot.
	if err := os.Rename(filepath.Join(tmpDir, server.SnapshotManifestName),
		filepath.Join(dstDir, server.SnapshotManifestName)); err != nil {
		return server.SnapshotInfo{}, fmt.Errorf("cluster: commit manifest: %w", err)
	}
	return info, nil
}

// fetcherFor returns the transfer function for src: HTTP against a
// node's snapshot endpoint for URLs, a file copy for paths.
func fetcherFor(src string, client *http.Client) func(ctx context.Context, name, dst string) error {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		base := strings.TrimRight(src, "/")
		return func(ctx context.Context, name, dst string) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+snapshotPath+name, nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s: %s", name, resp.Status)
			}
			return writeAll(dst, resp.Body)
		}
	}
	return func(ctx context.Context, name, dst string) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		f, err := os.Open(filepath.Join(src, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return writeAll(dst, f)
	}
}

// writeAll streams r into a freshly created dst, fsyncing before close
// so a verified file cannot lose its tail to a crash after the rename.
func writeAll(dst string, r io.Reader) error {
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		os.Remove(dst)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(dst)
		return err
	}
	return f.Close()
}
