package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// RegistryClient speaks the registry's HTTP/JSON protocol. Safe for
// concurrent use. It implements NodeLister, so a Router can sit directly
// on top of it.
type RegistryClient struct {
	base string
	hc   *http.Client
}

// NewRegistryClient creates a client for the registry at addr
// ("host:port" or a full "http://..." base URL).
func NewRegistryClient(addr string) *RegistryClient {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &RegistryClient{base: base, hc: &http.Client{Timeout: 5 * time.Second}}
}

// post sends a JSON body and decodes a JSON reply into out (when non-nil).
func (c *RegistryClient) post(path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		// The server body is ErrUnknownNode's own text plus the node
		// name — keep only what the sentinel doesn't already say.
		detail := strings.TrimSpace(string(msg))
		detail = strings.TrimPrefix(detail, ErrUnknownNode.Error())
		detail = strings.TrimPrefix(detail, ": ")
		if detail == "" {
			return ErrUnknownNode
		}
		return fmt.Errorf("%w: %s", ErrUnknownNode, detail)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fleet: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *RegistryClient) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fleet: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Announce registers the node and returns the heartbeat interval the
// registry asks for.
func (c *RegistryClient) Announce(info NodeInfo) (time.Duration, error) {
	var resp announceResponse
	if err := c.post("/v1/announce", info, &resp); err != nil {
		return 0, err
	}
	return resp.HeartbeatEvery, nil
}

// Heartbeat reports liveness. An ErrUnknownNode return means the
// registry declared the node dead; re-announce to rejoin.
func (c *RegistryClient) Heartbeat(name string) error {
	return c.post("/v1/heartbeat", nameRequest{Name: name}, nil)
}

// Drain asks the registry to stop routing new opens to the node.
func (c *RegistryClient) Drain(name string) error {
	return c.post("/v1/drain", nameRequest{Name: name}, nil)
}

// Forget declares the node dead (clean shutdown).
func (c *RegistryClient) Forget(name string) error {
	return c.post("/v1/forget", nameRequest{Name: name}, nil)
}

// Nodes fetches every node's status.
func (c *RegistryClient) Nodes() ([]NodeStatus, error) {
	var out []NodeStatus
	if err := c.get("/v1/nodes", &out); err != nil {
		return nil, err
	}
	for i := range out {
		out[i].State = stateFromName(out[i].StateName)
		for j := range out[i].History {
			out[i].History[j].From = stateFromName(out[i].History[j].FromName)
			out[i].History[j].To = stateFromName(out[i].History[j].ToName)
		}
	}
	return out, nil
}

// Status fetches the /fleet summary.
func (c *RegistryClient) Status() (FleetStatus, error) {
	var out FleetStatus
	if err := c.get("/fleet", &out); err != nil {
		return FleetStatus{}, err
	}
	for i := range out.Nodes {
		out.Nodes[i].State = stateFromName(out.Nodes[i].StateName)
	}
	return out, nil
}

// stateFromName inverts NodeState.String (unknown names map to dead —
// fail safe: never route to a state this client doesn't understand).
func stateFromName(name string) NodeState {
	switch name {
	case "announced":
		return StateAnnounced
	case "healthy":
		return StateHealthy
	case "suspect":
		return StateSuspect
	case "draining":
		return StateDraining
	default:
		return StateDead
	}
}

// Announcer is the minimal registry surface a Heartbeater drives; both
// RegistryClient and (in-process) *Registry adapters satisfy it.
type Announcer interface {
	Announce(info NodeInfo) (time.Duration, error)
	Heartbeat(name string) error
}

// LocalAnnouncer adapts an in-process *Registry to the Announcer and
// NodeLister surfaces, so in-process fleets (tests, examples) skip HTTP.
type LocalAnnouncer struct {
	// R is the wrapped registry.
	R *Registry
}

// Announce registers with the wrapped registry.
func (l LocalAnnouncer) Announce(info NodeInfo) (time.Duration, error) {
	if err := l.R.Announce(info); err != nil {
		return 0, err
	}
	return l.R.opts.HeartbeatEvery, nil
}

// Heartbeat beats against the wrapped registry.
func (l LocalAnnouncer) Heartbeat(name string) error { return l.R.Heartbeat(name) }

// Nodes lists the wrapped registry's nodes.
func (l LocalAnnouncer) Nodes() ([]NodeStatus, error) { return l.R.Nodes(), nil }

// Heartbeater keeps one node registered: it announces, then beats at the
// interval the registry asked for, transparently re-announcing if the
// registry declared the node dead (e.g. after a partition or registry
// restart).
type Heartbeater struct {
	ann  Announcer
	info NodeInfo

	stop chan struct{}
	done sync.WaitGroup

	mu      sync.Mutex
	lastErr error
}

// StartHeartbeater announces info, beats once so the node is routable
// immediately, and starts the background beat loop. Announce and
// first-beat errors are returned synchronously so callers fail fast on
// misconfiguration.
func StartHeartbeater(ann Announcer, info NodeInfo) (*Heartbeater, error) {
	every, err := ann.Announce(info)
	if err != nil {
		return nil, err
	}
	if err := ann.Heartbeat(info.Name); err != nil {
		return nil, err
	}
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	h := &Heartbeater{ann: ann, info: info, stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				err := h.ann.Heartbeat(h.info.Name)
				if errors.Is(err, ErrUnknownNode) {
					// Declared dead: rejoin.
					if _, aerr := h.ann.Announce(h.info); aerr == nil {
						err = h.ann.Heartbeat(h.info.Name)
					}
				}
				h.mu.Lock()
				h.lastErr = err
				h.mu.Unlock()
			}
		}
	}()
	return h, nil
}

// Stop ends the beat loop (the node's registry record then ages into
// suspect/dead unless something else beats for it).
func (h *Heartbeater) Stop() {
	h.mu.Lock()
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	h.mu.Unlock()
	h.done.Wait()
}

// Err returns the most recent heartbeat error (nil when healthy).
func (h *Heartbeater) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastErr
}
