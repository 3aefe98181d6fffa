package session_test

import (
	"reflect"
	"testing"

	"planetapps/internal/session"
)

func planConfig(seed uint64) session.Config {
	return session.Config{
		Users: 40, Apps: 20, Clusters: 4, ClusterP: 0.7,
		InstallP: 0.8, RateP: 0.6, CommentP: 0.4, Seed: seed,
	}
}

func TestPlanDeterminism(t *testing.T) {
	a := session.NewPlan(planConfig(7))
	b := session.NewPlan(planConfig(7))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal configs produced different plans")
	}
	if a.Visits == 0 || a.Installs == 0 || a.Ratings == 0 || a.Comments == 0 {
		t.Fatalf("degenerate plan: %+v", struct{ V, I, R, C int }{a.Visits, a.Installs, a.Ratings, a.Comments})
	}
	c := session.NewPlan(planConfig(8))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestPlanFetchAtMostOnce(t *testing.T) {
	p := session.NewPlan(planConfig(3))
	for _, up := range p.Users {
		seen := map[int32]bool{}
		for _, v := range up.Visits {
			if seen[v.App] {
				t.Fatalf("user %d visits app %d twice", up.User, v.App)
			}
			seen[v.App] = true
			if v.Rating < 0 || v.Rating > 5 {
				t.Fatalf("rating %d out of range", v.Rating)
			}
			if (v.Rating > 0 || v.Comment) && !v.Install {
				t.Fatalf("user %d rates/comments app %d without installing", up.User, v.App)
			}
		}
	}
}
