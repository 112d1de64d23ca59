#include "workload/media_graph.hh"

#include "sim/logging.hh"

namespace umany
{

const char *const mediaServiceEndpointNames[6] = {
    "ComposeReview", "ReadMovie", "ReadReviews",
    "Login", "Rate", "CastInfo",
};

namespace
{

/** Same helper shape as the social-network builder. */
struct MGen
{
    AppGraphParams p;

    Tick
    seg(Rng &rng, double mean_us) const
    {
        const double us =
            LognormalDist(mean_us * p.workScale, p.segSigma)
                .sample(rng);
        return fromUs(us);
    }

    static CallStep
    storage(std::uint32_t req_bytes = 512,
            std::uint32_t rsp_bytes = 12288)
    {
        CallStep c;
        c.kind = CallStep::Kind::Storage;
        c.requestBytes = req_bytes;
        c.responseBytes = rsp_bytes;
        return c;
    }

    static CallStep
    call(ServiceId callee, std::uint32_t req_bytes = 512,
         std::uint32_t rsp_bytes = 4096)
    {
        CallStep c;
        c.kind = CallStep::Kind::Service;
        c.callee = callee;
        c.requestBytes = req_bytes;
        c.responseBytes = rsp_bytes;
        return c;
    }
};

} // namespace

ServiceCatalog
buildMediaService(const AppGraphParams &p)
{
    ServiceCatalog cat;
    MGen g{p};

    // ---- Internal services. ----

    ServiceSpec movie_id;
    movie_id.name = "MovieId";
    movie_id.loadWeight = 1.0;
    movie_id.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 30), g.seg(rng, 20)};
        b.groups = {{MGen::storage(256, 1024)}};
        return b;
    };
    const ServiceId id_movie = cat.add(movie_id);

    ServiceSpec review_storage;
    review_storage.name = "ReviewStorage";
    review_storage.loadWeight = 2.0;
    review_storage.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 50), g.seg(rng, 30)};
        b.groups = {{MGen::storage(2048, 24576),
                     MGen::storage(512, 12288)}};
        return b;
    };
    const ServiceId id_reviews = cat.add(review_storage);

    ServiceSpec user_svc;
    user_svc.name = "UserSvc";
    user_svc.loadWeight = 1.5;
    user_svc.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 45), g.seg(rng, 25)};
        b.groups = {{MGen::storage()}};
        return b;
    };
    const ServiceId id_user = cat.add(user_svc);

    ServiceSpec text_svc;
    text_svc.name = "MediaText";
    text_svc.loadWeight = 1.0;
    text_svc.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 60), g.seg(rng, 30)};
        b.groups = {{MGen::storage()}};
        return b;
    };
    const ServiceId id_text = cat.add(text_svc);

    // ---- Endpoints. ----

    ServiceSpec login;
    login.name = "Login";
    login.endpoint = true;
    login.makeBehavior = [g, id_user](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 50), g.seg(rng, 25)};
        b.groups = {{MGen::call(id_user)}};
        return b;
    };
    cat.add(login);

    ServiceSpec rate;
    rate.name = "Rate";
    rate.endpoint = true;
    rate.makeBehavior = [g, id_movie](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 45), g.seg(rng, 25)};
        b.groups = {{MGen::call(id_movie), MGen::storage()}};
        return b;
    };
    cat.add(rate);

    ServiceSpec cast_info;
    cast_info.name = "CastInfo";
    cast_info.endpoint = true;
    cast_info.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 55), g.seg(rng, 30)};
        b.groups = {{MGen::storage(), MGen::storage(),
                     MGen::storage()}};
        return b;
    };
    cat.add(cast_info);

    ServiceSpec read_movie;
    read_movie.name = "ReadMovie";
    read_movie.endpoint = true;
    read_movie.loadWeight = 2.0;
    read_movie.makeBehavior = [g, id_movie, id_reviews](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 60), g.seg(rng, 40),
                      g.seg(rng, 25)};
        b.groups = {
            {MGen::call(id_movie),
             MGen::call(id_reviews, 512, 24576)},
            {MGen::storage()},
        };
        return b;
    };
    cat.add(read_movie);

    ServiceSpec read_reviews;
    read_reviews.name = "ReadReviews";
    read_reviews.endpoint = true;
    read_reviews.loadWeight = 2.0;
    read_reviews.makeBehavior = [g, id_reviews, id_user](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 55), g.seg(rng, 35)};
        CallGroup fan{MGen::call(id_reviews, 512, 24576),
                      MGen::call(id_user)};
        if (rng.chance(0.5))
            fan.push_back(MGen::call(id_reviews, 512, 24576));
        b.groups = {std::move(fan)};
        return b;
    };
    cat.add(read_reviews);

    ServiceSpec compose;
    compose.name = "ComposeReview";
    compose.endpoint = true;
    compose.loadWeight = 2.5;
    compose.makeBehavior = [g, id_movie, id_text, id_user,
                            id_reviews](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 80), g.seg(rng, 50),
                      g.seg(rng, 35), g.seg(rng, 20)};
        b.groups = {
            {MGen::call(id_movie), MGen::call(id_text),
             MGen::call(id_user)},
            {MGen::call(id_reviews, 2048, 1024)},
            {MGen::storage()},
        };
        return b;
    };
    cat.add(compose);

    for (const char *name : mediaServiceEndpointNames) {
        if (cat.byName(name) == nullptr)
            panic("media-service graph is missing endpoint %s", name);
    }
    return cat;
}

} // namespace umany
